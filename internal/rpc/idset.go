package rpc

import (
	"slices"
	"sort"
)

// idRange is an inclusive run of call ids.
type idRange struct{ lo, hi uint64 }

// idSet holds call ids as sorted, disjoint, non-adjacent inclusive
// ranges. Membership is exact — the ids that were added and no others,
// never a watermark — so a reordered or long-delayed first transmission
// of a never-seen id is not mistaken for a duplicate. A client numbers
// its calls in sequence, so the set is commonly one range: add extends
// it, has is one comparison, and only out-of-order ids pay a search.
type idSet []idRange

// find returns the index of the first range whose hi is at or above id.
func (s idSet) find(id uint64) int {
	return sort.Search(len(s), func(i int) bool { return s[i].hi >= id })
}

func (s idSet) has(id uint64) bool {
	n := len(s)
	if n == 0 {
		return false
	}
	if last := s[n-1]; id >= last.lo {
		return id <= last.hi
	}
	return s[s.find(id)].lo <= id // id < last.lo, so find is in range
}

func (s *idSet) add(id uint64) {
	r := *s
	n := len(r)
	switch {
	case n > 0 && id <= r[n-1].hi: // out of order: insert, then close the gaps
		i := r.find(id)
		if r[i].lo <= id {
			return
		}
		r = slices.Insert(r, i, idRange{id, id})
		if id+1 == r[i+1].lo {
			r[i].hi = r[i+1].hi
			r = slices.Delete(r, i+1, i+2)
		}
		if i > 0 && r[i-1].hi+1 == id {
			r[i-1].hi = r[i].hi
			r = slices.Delete(r, i, i+1)
		}
		*s = r
	case n > 0 && id == r[n-1].hi+1:
		r[n-1].hi = id
	default:
		*s = append(r, idRange{id, id})
	}
}

// forgetOldestHalf drops the lower half of the ranges: ids grow, so the
// lowest are the oldest.
func (s *idSet) forgetOldestHalf() {
	r := *s
	*s = r[:copy(r, r[len(r)/2:])]
}

// idWindow remembers ids for one to two janitor ticks: adds go into cur,
// lookups consult both generations, and rotate retires prev wholesale —
// no per-id timestamp, no clock read.
type idWindow struct{ cur, prev idSet }

func (w *idWindow) has(id uint64) bool { return w.cur.has(id) || w.prev.has(id) }
func (w *idWindow) empty() bool        { return len(w.cur) == 0 && len(w.prev) == 0 }
func (w *idWindow) rotate()            { w.cur, w.prev = w.prev[:0], w.cur }
