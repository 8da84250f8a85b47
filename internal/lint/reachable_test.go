package lint_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"stat4/internal/lint"
)

// TestReachable builds the fixture module under testdata/reachable in a
// temporary directory and runs the reachable pass over it. Its command
// reaches package lib through an interface call, a method value, a
// package-variable initialiser, init, a method on a generic type and fmt
// calling a String method; the root package's test binary reaches Bench.
// None of those may report, nor may a bodyless //go:linkname declaration of
// a runtime function the command calls. A function only its package's test
// calls must report, unless it carries an exemption, and so must a
// linkname declaration whose target no binary links; an empty marker method
// never reports.
func TestReachable(t *testing.T) {
	dir := t.TempDir()
	err := filepath.WalkDir("testdata/reachable", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel("testdata/reachable", path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	mod, err := lint.LoadModule(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	linked, err := lint.Link(mod.Dir)
	if err != nil {
		t.Fatal(err)
	}
	checkExpectations(t, mod, lint.Run(mod, []*lint.Analyzer{lint.Reachable(linked)}))
}
