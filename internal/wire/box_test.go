package wire

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBoxFileVetsClean: box.go converts pointers by hand, so vet's
// unsafeptr (and everything else it checks) must stay silent on this
// package.
func TestBoxFileVetsClean(t *testing.T) {
	if out, err := exec.Command("go", "vet", ".").CombinedOutput(); err != nil {
		t.Fatalf("go vet ./internal/wire: %v\n%s", err, out)
	}
}

// TestOnlyBoxFileBuildsInterfaceWords: an interface word cannot be
// built by hand without an unsafe pointer, and box.go — start-up
// self-check and all — is the one file allowed to. (cmd/odpload passes
// one to a system call.)
func TestOnlyBoxFileBuildsInterfaceWords(t *testing.T) {
	needle := []byte("unsafe" + ".Pointer")
	allowed := map[string]bool{"internal/wire/box.go": true, "cmd/odpload/affinity_linux.go": true}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, and the benchmark's build caches
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if rel, _ := filepath.Rel(root, path); err == nil && bytes.Contains(src, needle) && !allowed[filepath.ToSlash(rel)] {
			t.Errorf("%s uses %s; hand-built pointers belong in internal/wire/box.go", rel, needle)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
