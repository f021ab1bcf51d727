package lint

import (
	"errors"
	"fmt"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestRepoIsClean runs the full analysis suite over the entire module and
// requires zero diagnostics. This is a tier-1 invariant: the engineering
// model rules the passes encode (no blocking under a mutex, no wall-clock
// reads in simulation-driven packages, no layer bypass, no lock-order cycle)
// hold everywhere, forever. A failure here is a real defect in whatever
// code tripped it, not in this test.
func TestRepoIsClean(t *testing.T) {
	for _, d := range Run(loadModule(t), DefaultAnalyzers()) {
		t.Errorf("%s", d.Render())
	}
}

var moduleLoad struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule loads the whole module once for every test that needs it.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	moduleLoad.once.Do(func() {
		l, err := NewLoader(".")
		if err != nil {
			moduleLoad.err = err
			return
		}
		moduleLoad.pkgs, moduleLoad.err = l.LoadAll()
		if moduleLoad.err == nil && len(moduleLoad.pkgs) == 0 {
			moduleLoad.err = errors.New("loader found no packages")
		}
	})
	if moduleLoad.err != nil {
		t.Fatal(moduleLoad.err)
	}
	return moduleLoad.pkgs
}

// TestDefaultConfigsNameWhatExists keeps the passes' tables from rotting:
// every deny-listed function, exempt package or file and layering entry
// must name something in the module (or, for the deny-list, in a package
// it imports). A rename would otherwise silently disable the entry.
func TestDefaultConfigsNameWhatExists(t *testing.T) {
	pkgs := loadModule(t)
	byPath := map[string]*types.Package{}
	files := map[string]bool{}
	var index func(tp *types.Package)
	index = func(tp *types.Package) {
		if byPath[tp.Path()] != nil {
			return
		}
		byPath[tp.Path()] = tp
		for _, imp := range tp.Imports() {
			index(imp)
		}
	}
	for _, pkg := range pkgs {
		index(pkg.Types)
		for _, f := range pkg.Files {
			files[pkg.Path+"/"+filepath.Base(pkg.Fset.Position(f.Pos()).Filename)] = true
		}
	}
	isModulePkg := func(path string) bool {
		for _, pkg := range pkgs {
			if pkg.Path == path {
				return true
			}
		}
		return false
	}

	for path, names := range DefaultMutexHeldConfig().Blocking {
		tp := byPath[path]
		if tp == nil {
			t.Errorf("mutexheld Blocking: no package %s", path)
			continue
		}
		for _, name := range names {
			var obj types.Object
			if typ, method, ok := strings.Cut(name, "."); ok {
				if tn, ok := tp.Scope().Lookup(typ).(*types.TypeName); ok {
					obj, _, _ = types.LookupFieldOrMethod(tn.Type(), true, tp, method)
				}
			} else {
				obj = tp.Scope().Lookup(name)
			}
			if _, ok := obj.(*types.Func); !ok {
				t.Errorf("mutexheld Blocking: %s has no function %s", path, name)
			}
		}
	}

	dc := DefaultDetClockConfig()
	for _, path := range dc.ExemptPackages {
		if !isModulePkg(path) {
			t.Errorf("detclock ExemptPackages: no package %s", path)
		}
	}
	for _, prefix := range dc.ExemptPrefixes {
		found := false
		for _, pkg := range pkgs {
			found = found || strings.HasPrefix(pkg.Path, prefix)
		}
		if !found {
			t.Errorf("detclock ExemptPrefixes: no package under %s", prefix)
		}
	}
	for _, file := range dc.ExemptFiles {
		if !files[file] {
			t.Errorf("detclock ExemptFiles: no file %s", file)
		}
	}
	for _, file := range dc.RealClockFiles {
		if !files[file] {
			t.Errorf("detclock RealClockFiles: no file %s", file)
		}
	}

	lc := DefaultLayeringConfig()
	for _, table := range []map[string][]string{lc.Restricted, lc.LowLayer} {
		for path, allowed := range table {
			for _, p := range append([]string{path}, allowed...) {
				if !isModulePkg(p) {
					t.Errorf("layering: no package %s", p)
				}
			}
		}
	}
}

// fixtureCase is one known-bad corpus package with its exact expected
// diagnostics, rendered "file.go:line: [pass] message".
type fixtureCase struct {
	dir      string
	asPath   string // synthetic import path the fixture is loaded under
	analyzer Analyzer
	want     []string
}

func fixtureCases() []fixtureCase {
	return []fixtureCase{
		{
			dir: "locksend", asPath: "odp/internal/locksend",
			analyzer: NewLocks(DefaultMutexHeldConfig()),
			want: []string{
				"locksend.go:17: [mutexheld] channel send while q.mu is held",
			},
		},
		{
			dir: "lockrecv", asPath: "odp/internal/lockrecv",
			analyzer: NewLocks(DefaultMutexHeldConfig()),
			want: []string{
				"lockrecv.go:18: [mutexheld] channel receive while q.mu is held",
				"lockrecv.go:24: [mutexheld] call to sync.WaitGroup.Wait while q.mu is held",
			},
		},
		{
			dir: "trylock", asPath: "odp/internal/trylock",
			analyzer: NewLocks(DefaultMutexHeldConfig()),
			want: []string{
				"trylock.go:17: [mutexheld] channel send while q.mu is held",
				"trylock.go:29: [mutexheld] channel send while q.mu is held",
				"trylock.go:36: [mutexheld] channel send while q.mu is held",
			},
		},
		{
			dir: "lockerval", asPath: "odp/internal/lockerval",
			analyzer: NewLocks(DefaultMutexHeldConfig()),
			want: []string{
				"lockerval.go:16: [mutexheld] channel send while s.l is held",
			},
		},
		{
			dir: "lockedctx", asPath: "odp/internal/lockedctx",
			analyzer: NewLocks(DefaultMutexHeldConfig()),
			want: []string{
				"lockedctx.go:14: [mutexheld] channel receive while (caller's mutex) is held",
				"lockedctx.go:19: [mutexheld] channel send while (caller's mutex) is held",
			},
		},
		{
			dir: "timecall", asPath: "odp/internal/timecall",
			analyzer: NewDetClock(DefaultDetClockConfig()),
			want: []string{
				"timecall.go:9: [detclock] time.Now in simulation-driven package odp/internal/timecall: take the time from internal/clock",
				"timecall.go:14: [detclock] time.Sleep in simulation-driven package odp/internal/timecall: take the time from internal/clock",
			},
		},
		{
			dir: "randtick", asPath: "odp/internal/randtick",
			analyzer: NewDetClock(DefaultDetClockConfig()),
			want: []string{
				"randtick.go:12: [detclock] global rand.Int63n in simulation-driven package odp/internal/randtick: use a seeded rand.New(rand.NewSource(...))",
				"randtick.go:17: [detclock] time.NewTicker in simulation-driven package odp/internal/randtick: take the time from internal/clock",
			},
		},
		{
			dir: "realclock", asPath: "odp/internal/realclock",
			analyzer: NewDetClock(DefaultDetClockConfig()),
			want: []string{
				"realclock.go:13: [detclock] clock.Real{} in odp/internal/realclock: read the node's clock from below (Batcher.Clock, Capsule.Clock) or take it as an argument",
				"realclock.go:19: [detclock] clock.Real{} in odp/internal/realclock: read the node's clock from below (Batcher.Clock, Capsule.Clock) or take it as an argument",
			},
		},
		{
			// Loaded as a computational-model package: the direct
			// transport import must be rejected.
			dir: "transportimport", asPath: "odp/internal/order",
			analyzer: NewLayering(DefaultLayeringConfig()),
			want: []string{
				"transportimport.go:7: [layering] odp/internal/order imports odp/internal/transport directly: only odp, odp/internal/rpc, odp/internal/core, odp/internal/capsule, odp/internal/netsim may bypass the proxy layers",
			},
		},
		{
			// Loaded as a computational-model package: the simulated
			// fabric — including the sparse-topology subnet surface — may
			// only be owned by the façade or the sim harness.
			dir: "netsimreach", asPath: "odp/internal/group",
			analyzer: NewLayering(DefaultLayeringConfig()),
			want: []string{
				"netsimreach.go:9: [layering] odp/internal/group imports odp/internal/netsim directly: only odp, odp/internal/sim may bypass the proxy layers",
			},
		},
		{
			// Loaded as a low-layer package: its module-internal import
			// points upward.
			dir: "lowreach", asPath: "odp/internal/clock",
			analyzer: NewLayering(DefaultLayeringConfig()),
			want: []string{
				"lowreach.go:6: [layering] low-layer package odp/internal/clock imports odp/internal/wire: lower layers must not reach upward",
			},
		},
		{
			dir: "ctxdrop", asPath: "odp/internal/ctxdrop",
			analyzer: NewCtxDrop(),
			want: []string{
				`ctxdrop.go:9: [ctxdrop] context parameter "ctx" is dropped by Dropped: propagate it or rename it to _`,
				`ctxdrop.go:20: [ctxdrop] context parameter "ctx" is dropped by function literal: propagate it or rename it to _`,
			},
		},
		{
			dir: "obsleak", asPath: "odp/internal/obsleak",
			analyzer: NewObsLeak(),
			want: []string{
				`obsleak.go:10: [obsleak] span "sp" from Collector.Begin never reaches End: release it on every return path`,
				"obsleak.go:18: [obsleak] result of Collector.Begin is discarded: a sampled span would never be released",
				"obsleak.go:19: [obsleak] result of Collector.BeginChild is discarded: a sampled span would never be released",
			},
		},
	}
}

// TestFixtures proves each pass fires on its known-bad corpus, producing
// exactly the expected diagnostics — no more, no fewer, no drift in
// position or wording.
func TestFixtures(t *testing.T) {
	for _, c := range fixtureCases() {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			l, err := NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", c.dir), c.asPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			var got []string
			for _, d := range Run([]*Package{pkg}, []Analyzer{c.analyzer}) {
				got = append(got, fmt.Sprintf("%s:%d: [%s] %s",
					filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pass, d.Message))
			}
			if len(got) != len(c.want) {
				t.Fatalf("got %d diagnostics, want %d:\ngot:  %q\nwant: %q",
					len(got), len(c.want), got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("diagnostic %d:\ngot:  %s\nwant: %s", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestDetClockFileExemption pins the per-file exemption mechanism that
// scopes netsim's wall-clock license to realtime.go: an ExemptFiles
// entry names "pkgpath/basename", so it silences exactly that file and
// does not follow the basename into another package. RealClockFiles
// works the same way, and each list silences only its own rule.
func TestDetClockFileExemption(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", "timecall"), "odp/internal/timecall")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDetClockConfig()
	cfg.ExemptFiles = append(cfg.ExemptFiles, "odp/internal/timecall/timecall.go")
	for _, d := range Run([]*Package{pkg}, []Analyzer{NewDetClock(cfg)}) {
		t.Errorf("exempt file still flagged: %s", d)
	}

	other := DefaultDetClockConfig()
	other.ExemptFiles = []string{"odp/internal/elsewhere/timecall.go"}
	if ds := Run([]*Package{pkg}, []Analyzer{NewDetClock(other)}); len(ds) == 0 {
		t.Error("exemption for another package's file silenced this one")
	}

	// The two lists stay apart: a wall-clock license is not a license to
	// choose the node's clock, nor the reverse.
	rc, err := l.LoadDirAs(filepath.Join("testdata", "src", "realclock"), "odp/internal/realclock")
	if err != nil {
		t.Fatal(err)
	}
	timeOnly := DefaultDetClockConfig()
	timeOnly.ExemptFiles = append(timeOnly.ExemptFiles, "odp/internal/realclock/realclock.go")
	if ds := Run([]*Package{rc}, []Analyzer{NewDetClock(timeOnly)}); len(ds) != 2 {
		t.Errorf("ExemptFiles silenced clock.Real{}: %d diagnostics, want 2", len(ds))
	}
	realOnly := DefaultDetClockConfig()
	realOnly.RealClockFiles = append(realOnly.RealClockFiles, "odp/internal/timecall/timecall.go")
	if ds := Run([]*Package{pkg}, []Analyzer{NewDetClock(realOnly)}); len(ds) != 2 {
		t.Errorf("RealClockFiles silenced the time package: %d diagnostics, want 2", len(ds))
	}
	realOnly.RealClockFiles = append(realOnly.RealClockFiles, "odp/internal/realclock/realclock.go")
	for _, d := range Run([]*Package{rc}, []Analyzer{NewDetClock(realOnly)}) {
		t.Errorf("allowlisted file still flagged: %s", d)
	}
}

// TestSelectWithDefaultIsNonBlocking pins the exemption that keeps
// clock.Fake.Advance legal: a select with a default clause cannot block,
// so it is allowed under a held mutex.
func TestSelectWithDefaultIsNonBlocking(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("odp/internal/clock")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []Analyzer{NewLocks(DefaultMutexHeldConfig())}) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
