package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("odp/internal/rpc").
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test sources; _test.go files are not
	// loaded.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression facts.
	Info *types.Info
}

// Loader parses and type-checks the module's packages using only the
// standard library: module-internal imports are resolved from source on
// disk, everything else through the stdlib source importer.
type Loader struct {
	// ModulePath is the module's declared path ("odp").
	ModulePath string
	// ModuleDir is the directory containing go.mod.
	ModuleDir string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modPath,
		ModuleDir:  modDir,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks upward from dir to the enclosing go.mod and reads its
// module path.
func findModule(dir string) (modDir, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// LoadAll loads every package of the module (skipping testdata and
// hidden directories), returning them sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoSources(p) {
			paths = append(paths, l.importPathFor(p))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleDir
	}
	return filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
}

// hasGoSources reports whether dir directly contains non-test .go files.
func hasGoSources(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// Load parses and type-checks the module package at the given import
// path, reusing earlier loads.
func (l *Loader) Load(path string) (*Package, error) {
	return l.LoadDirAs(l.dirFor(path), path)
}

// LoadDirAs loads the package in dir under the given import path. It
// exists for fixture corpora kept outside the module tree (testdata),
// which must still be able to import module packages.
func (l *Loader) LoadDirAs(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		// Honour build constraints (//go:build lines and GOOS/GOARCH
		// filename suffixes) for the loader's own build context: a gated
		// file that the compiler would not see must not reach the type
		// checker, where its declarations could collide with the
		// ungated implementation it replaces.
		if match, err := build.Default.MatchFile(dir, e.Name()); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if p == l.ModulePath || strings.HasPrefix(p, l.ModulePath+"/") {
				pkg, err := l.Load(p)
				if err != nil {
					return nil, err
				}
				return pkg.Types, nil
			}
			return l.std.Import(p)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
