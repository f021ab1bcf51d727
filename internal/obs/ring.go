package obs

// ring keeps the newest values pushed into it, up to a fixed size. Its
// storage is allocated by the first push, so an owner that never records
// holds none. The owner serialises access.
type ring[T any] struct {
	buf  []T
	size int
	pos  int  // the slot the next push writes
	full bool // every slot holds a value; buf[pos] is the oldest
}

func newRing[T any](size int) ring[T] { return ring[T]{size: size} }

// push stores v, overwriting the oldest value once the ring is full.
func (r *ring[T]) push(v T) {
	if r.buf == nil {
		r.buf = make([]T, r.size)
	}
	r.buf[r.pos] = v
	if r.pos++; r.pos == len(r.buf) {
		r.pos, r.full = 0, true
	}
}

// len reports how many values the ring holds.
func (r *ring[T]) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.pos
}

// list copies the retained values out, oldest first.
func (r *ring[T]) list() []T {
	out := make([]T, 0, r.len())
	if r.full {
		out = append(out, r.buf[r.pos:]...)
	}
	return append(out, r.buf[:r.pos]...)
}
