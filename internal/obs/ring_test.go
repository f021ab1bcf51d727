package obs

import (
	"reflect"
	"testing"
)

func TestRingWrapsOldestFirst(t *testing.T) {
	r := newRing[int](3)
	if r.buf != nil || r.len() != 0 || len(r.list()) != 0 {
		t.Fatalf("empty ring: buf of %d, len %d, list %v", len(r.buf), r.len(), r.list())
	}
	for i, want := range [][]int{
		{1},
		{1, 2},
		{1, 2, 3},
		{2, 3, 4},
		{3, 4, 5},
		{4, 5, 6},
		{5, 6, 7},
	} {
		r.push(i + 1)
		if got := r.list(); !reflect.DeepEqual(got, want) || r.len() != len(want) {
			t.Fatalf("after %d pushes: list %v (len %d), want %v", i+1, got, r.len(), want)
		}
	}
	// The list is a copy: the next push does not reach into it.
	got := r.list()
	r.push(8)
	if !reflect.DeepEqual(got, []int{5, 6, 7}) {
		t.Fatalf("list aliased the ring: %v", got)
	}
}
