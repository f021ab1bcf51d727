package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadLockGraphFixture loads one known-bad corpus package from
// testdata/lockgraph under a synthetic import path.
func loadLockGraphFixture(t *testing.T, dir, asPath string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDirAs(filepath.Join("testdata", "lockgraph", dir), asPath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkg
}

// renderAll renders diagnostics with notes, one string per diagnostic,
// exactly as cmd/odplint prints them.
func renderAll(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Render()
	}
	return out
}

// TestLockGraphTwoLockCycle proves the pass rejects the classic AB/BA
// inversion, with the exact cycle statement and the full witness chain
// for both edges.
func TestLockGraphTwoLockCycle(t *testing.T) {
	pkg := loadLockGraphFixture(t, "twolock", "odp/internal/twolock")
	got := renderAll(Run([]*Package{pkg}, []Analyzer{NewLocks(DefaultMutexHeldConfig())}))
	want := []string{
		"testdata/lockgraph/twolock/twolock.go:21:11: [lockgraph] lock-order cycle (2 locks): " +
			"odp/internal/twolock.A.mu → odp/internal/twolock.B.mu → odp/internal/twolock.A.mu\n" +
			"\tedge odp/internal/twolock.A.mu → odp/internal/twolock.B.mu:\n" +
			"\t  testdata/lockgraph/twolock/twolock.go:21: holding odp/internal/twolock.A.mu\n" +
			"\t  testdata/lockgraph/twolock/twolock.go:22: acquires odp/internal/twolock.B.mu\n" +
			"\tedge odp/internal/twolock.B.mu → odp/internal/twolock.A.mu:\n" +
			"\t  testdata/lockgraph/twolock/twolock.go:30: holding odp/internal/twolock.B.mu\n" +
			"\t  testdata/lockgraph/twolock/twolock.go:31: acquires odp/internal/twolock.A.mu",
	}
	diffStrings(t, got, want)
}

// TestLockGraphThreeLockCycleThroughCall proves cycle detection composes
// across function calls: the X → Y edge only exists through grabY, and
// the witness chain must show the call step.
func TestLockGraphThreeLockCycleThroughCall(t *testing.T) {
	pkg := loadLockGraphFixture(t, "threelock", "odp/internal/threelock")
	got := renderAll(Run([]*Package{pkg}, []Analyzer{NewLocks(DefaultMutexHeldConfig())}))
	want := []string{
		"testdata/lockgraph/threelock/threelock.go:34:11: [lockgraph] lock-order cycle (3 locks): " +
			"odp/internal/threelock.X.mu → odp/internal/threelock.Y.mu → odp/internal/threelock.Z.mu → odp/internal/threelock.X.mu\n" +
			"\tedge odp/internal/threelock.X.mu → odp/internal/threelock.Y.mu:\n" +
			"\t  testdata/lockgraph/threelock/threelock.go:34: holding odp/internal/threelock.X.mu\n" +
			"\t  testdata/lockgraph/threelock/threelock.go:35: calls odp/internal/threelock.grabY\n" +
			"\t  testdata/lockgraph/threelock/threelock.go:27: acquires odp/internal/threelock.Y.mu\n" +
			"\tedge odp/internal/threelock.Y.mu → odp/internal/threelock.Z.mu:\n" +
			"\t  testdata/lockgraph/threelock/threelock.go:41: holding odp/internal/threelock.Y.mu\n" +
			"\t  testdata/lockgraph/threelock/threelock.go:42: acquires odp/internal/threelock.Z.mu\n" +
			"\tedge odp/internal/threelock.Z.mu → odp/internal/threelock.X.mu:\n" +
			"\t  testdata/lockgraph/threelock/threelock.go:49: holding odp/internal/threelock.Z.mu\n" +
			"\t  testdata/lockgraph/threelock/threelock.go:50: acquires odp/internal/threelock.X.mu",
	}
	diffStrings(t, got, want)
}

// TestLockGraphInterfaceDispatch proves an edge hidden behind an
// interface call is found: Q is held across Grabber.Grab, whose only
// module implementation acquires P.
func TestLockGraphInterfaceDispatch(t *testing.T) {
	pkg := loadLockGraphFixture(t, "iface", "odp/internal/iface")
	got := renderAll(Run([]*Package{pkg}, []Analyzer{NewLocks(DefaultMutexHeldConfig())}))
	want := []string{
		"testdata/lockgraph/iface/iface.go:40:12: [lockgraph] lock-order cycle (2 locks): " +
			"odp/internal/iface.P.mu → odp/internal/iface.Q.mu → odp/internal/iface.P.mu\n" +
			"\tedge odp/internal/iface.P.mu → odp/internal/iface.Q.mu:\n" +
			"\t  testdata/lockgraph/iface/iface.go:40: holding odp/internal/iface.P.mu\n" +
			"\t  testdata/lockgraph/iface/iface.go:41: acquires odp/internal/iface.Q.mu\n" +
			"\tedge odp/internal/iface.Q.mu → odp/internal/iface.P.mu:\n" +
			"\t  testdata/lockgraph/iface/iface.go:33: holding odp/internal/iface.Q.mu\n" +
			"\t  testdata/lockgraph/iface/iface.go:34: calls (*odp/internal/iface.P).Grab\n" +
			"\t  testdata/lockgraph/iface/iface.go:18: acquires odp/internal/iface.P.mu",
	}
	diffStrings(t, got, want)
}

// diffStrings compares rendered diagnostics pairwise with a readable
// failure message.
func diffStrings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\ngot:\n%s\nwant:\n%s",
			len(got), len(want), strings.Join(got, "\n---\n"), strings.Join(want, "\n---\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\ngot:\n%s\nwant:\n%s", i, got[i], want[i])
		}
	}
}
