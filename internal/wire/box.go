package wire

import (
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// This file holds every use of package unsafe in the codec: the string
// view of a byte-slab region, and the constructors that box a decoded
// scalar or header as a Value whose data word points into one of its
// message's slabs, where the runtime would allocate a private copy. A
// box is {type word, pointer}: the layout the runtime gives an
// interface holding any type that is not itself pointer-shaped. The
// slab element is written once, before it is boxed — the runtime
// assumes what an interface points at never changes.

// slabString views b, a region of a message's byte slab, as a string.
// Nothing writes the region after the decoder's copy into it, and the
// slab is garbage-collected storage the string keeps alive.
func slabString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// smalls are the boxes of int64 and uint64 values below 256, as the
// runtime's own table is; init fills it.
var smalls [256]uint64

type iword struct{ typ, data unsafe.Pointer }

// box returns a Value of like's dynamic type whose data word is data.
func box(like Value, data unsafe.Pointer) Value {
	(*iword)(unsafe.Pointer(&like)).data = data
	return like
}

// The three 8-byte scalars share one []uint64 slab: p holds the value's
// bit pattern.
func boxInt64(p *uint64) Value   { return box(int64(0), unsafe.Pointer(p)) }
func boxUint64(p *uint64) Value  { return box(uint64(0), unsafe.Pointer(p)) }
func boxFloat64(p *uint64) Value { return box(float64(0), unsafe.Pointer(p)) }
func boxString(p *string) Value  { return box("", unsafe.Pointer(p)) }
func boxBytes(p *[]byte) Value   { return box([]byte(nil), unsafe.Pointer(p)) }
func boxList(p *List) Value      { return box(List(nil), unsafe.Pointer(p)) }

// A toolchain that laid interfaces out differently would turn every
// decoded value into garbage, silently; this turns it into a panic at
// start-up. Each box is read back both ways a program reads an
// interface: through a type switch (Equal's) and through reflection.
func init() {
	for i := range smalls {
		smalls[i] = uint64(i)
	}
	word := uint64(1<<63 | 1<<40)
	str, raw, list := "box", []byte{0xb0}, List{nil, true}
	for _, c := range []struct{ boxed, plain Value }{
		{boxInt64(&word), int64(word)},
		{boxUint64(&word), word},
		{boxFloat64(&word), math.Float64frombits(word)},
		{boxString(&str), str},
		{boxBytes(&raw), raw},
		{boxList(&list), list},
	} {
		if reflect.TypeOf(c.boxed) != reflect.TypeOf(c.plain) || !Equal(c.boxed, c.plain) {
			panic(fmt.Sprintf("wire: a hand-built %T box does not read back on this toolchain", c.plain))
		}
	}
}
