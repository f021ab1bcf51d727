package lint

import (
	"go/constant"
	"go/types"
	"path/filepath"
	"testing"
)

// TestLoaderBuildConstraints proves the loader applies build constraints
// the way `go build` would: the tagged fixture only type-checks if the
// //go:build-gated and GOOS-suffixed siblings (each redeclaring Mode) are
// excluded, and its _test.go file is not loaded at all (it references
// an undefined identifier, so type-checking it would fail the load).
func TestLoaderBuildConstraints(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", "tagged"), "odp/internal/tagged")
	if err != nil {
		t.Fatalf("build-constrained fixture failed to load (gated files not excluded?): %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("got %d files, want 1 (tagged.go only)", len(pkg.Files))
	}
	c, ok := pkg.Types.Scope().Lookup("Mode").(*types.Const)
	if !ok {
		t.Fatal("Mode constant not type-checked")
	}
	if v := constant.StringVal(c.Val()); v != "portable" {
		t.Fatalf("Mode = %q, want the unconstrained declaration %q", v, "portable")
	}
}

// TestLoaderNetsimRealtimeSplit pins, at loader level, the split that
// scopes netsim's wall-clock license: realtime.go IS loaded (no build
// constraint hides it), and only the detclock file exemption — not the
// loader — keeps its time.AfterFunc out of the diagnostics.
func TestLoaderNetsimRealtimeSplit(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("odp/internal/netsim")
	if err != nil {
		t.Fatal(err)
	}
	haveRealtime := false
	for _, f := range pkg.Files {
		if filepath.Base(pkg.Fset.Position(f.Package).Filename) == "realtime.go" {
			haveRealtime = true
		}
	}
	if !haveRealtime {
		t.Fatal("loader dropped realtime.go: the wall-clock fallback would escape analysis entirely")
	}
	if ds := Run([]*Package{pkg}, []Analyzer{NewDetClock(DefaultDetClockConfig())}); len(ds) != 0 {
		t.Errorf("default exemption no longer covers realtime.go: %v", ds)
	}
	bare := DefaultDetClockConfig()
	bare.ExemptFiles = nil
	if ds := Run([]*Package{pkg}, []Analyzer{NewDetClock(bare)}); len(ds) == 0 {
		t.Error("without the file exemption realtime.go produced no findings: its wall-clock use is invisible to the pass")
	}
}
