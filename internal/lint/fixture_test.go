package lint_test

// The analysistest-style harness of the lint suite: it loads hermetic fixture
// packages from a testdata/src tree, runs the analyzers, and compares the
// reported diagnostics against // want "regex" comments placed on the
// offending lines.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"stat4/internal/lint"
)

// runFixture type-checks the fixture package at srcRoot/path (resolving its imports
// inside srcRoot, so fixtures are hermetic), runs the analyzer suite and
// compares the diagnostics against // want "regex" comments. Each regex must
// match the "analyzer: message" string of exactly one diagnostic reported on
// the comment's line, and every diagnostic must be wanted.
func runFixture(t *testing.T, srcRoot, path string, analyzers []*lint.Analyzer) {
	t.Helper()
	mod, err := loadFixture(srcRoot, path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags := lint.Run(mod, analyzers)
	checkExpectations(t, mod, diags)
}

// fixtureDiagnostics loads the fixture and returns the raw diagnostics, for tests
// that assert on them directly.
func fixtureDiagnostics(t *testing.T, srcRoot, path string, analyzers []*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	mod, err := loadFixture(srcRoot, path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	return lint.Run(mod, analyzers)
}

// loadFixture builds a lint.Module from fixture sources rooted at srcRoot. Fixture
// packages may import each other by srcRoot-relative path; imports outside
// the fixture tree are errors, which keeps fixtures hermetic and the harness
// free of compiled export data.
func loadFixture(srcRoot, path string) (*lint.Module, error) {
	fset := token.NewFileSet()
	mod := &lint.Module{Fset: fset}
	cache := make(map[string]*lint.Package)
	loading := make(map[string]bool)

	var load func(path string) (*lint.Package, error)
	load = func(path string) (*lint.Package, error) {
		if p, ok := cache[path]; ok {
			return p, nil
		}
		if loading[path] {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		loading[path] = true
		defer delete(loading, path)

		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		cfg := &types.Config{Importer: importerFunc(func(ipath string) (*types.Package, error) {
			dep, err := load(ipath)
			if err != nil {
				return nil, fmt.Errorf("fixture import %q: %w", ipath, err)
			}
			return dep.Types, nil
		})}
		tpkg, err := cfg.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
		pkg := &lint.Package{Path: path, Files: files, Types: tpkg, Info: info}
		cache[path] = pkg
		mod.Pkgs = append(mod.Pkgs, pkg) // post-order: dependencies first
		return pkg, nil
	}

	if _, err := load(path); err != nil {
		return nil, err
	}
	return mod, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// expectation is one want comment: the regexes expected to match
// diagnostics on its line. It is spelled // want "regex", or /* want
// "regex" */ on a line whose diagnostic a line comment reports (a
// directive's).
type expectation struct {
	file     string
	line     int
	patterns []*regexp.Regexp
}

var wantRe = regexp.MustCompile(`(?://|/\*)\s*want\b(.*?)(?:\*/)?$`)

// parseWants extracts want expectations from every fixture file.
func parseWants(mod *lint.Module) ([]expectation, error) {
	var out []expectation
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					exp := expectation{file: pos.Filename, line: pos.Line}
					rest := strings.TrimSpace(m[1])
					for rest != "" {
						if rest[0] != '"' && rest[0] != '`' {
							return nil, fmt.Errorf("%s: malformed // want: %q", pos, c.Text)
						}
						prefix, err := quotedPrefix(rest)
						if err != nil {
							return nil, fmt.Errorf("%s: %v in %q", pos, err, c.Text)
						}
						unq, err := strconv.Unquote(prefix)
						if err != nil {
							return nil, fmt.Errorf("%s: %v in %q", pos, err, prefix)
						}
						rx, err := regexp.Compile(unq)
						if err != nil {
							return nil, fmt.Errorf("%s: bad regexp: %v", pos, err)
						}
						exp.patterns = append(exp.patterns, rx)
						rest = strings.TrimSpace(rest[len(prefix):])
					}
					if len(exp.patterns) == 0 {
						return nil, fmt.Errorf("%s: // want with no patterns", pos)
					}
					out = append(out, exp)
				}
			}
		}
	}
	return out, nil
}

// quotedPrefix returns the leading Go string literal of s.
func quotedPrefix(s string) (string, error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		switch {
		case s[i] == '\\' && quote == '"':
			i++
		case s[i] == quote:
			return s[:i+1], nil
		}
	}
	return "", fmt.Errorf("unterminated string literal")
}

// checkExpectations pairs diagnostics with // want patterns line by line.
func checkExpectations(t *testing.T, mod *lint.Module, diags []lint.Diagnostic) {
	t.Helper()
	wants, err := parseWants(mod)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	unmatched := make(map[key][]lint.Diagnostic)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		unmatched[k] = append(unmatched[k], d)
	}

	for _, w := range wants {
		k := key{w.file, w.line}
		for _, rx := range w.patterns {
			found := -1
			for i, d := range unmatched[k] {
				if rx.MatchString(d.Analyzer + ": " + d.Message) {
					found = i
					break
				}
			}
			if found < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (have %s)",
					w.file, w.line, rx, describe(unmatched[k]))
				continue
			}
			unmatched[k] = append(unmatched[k][:found], unmatched[k][found+1:]...)
		}
	}

	var leftoverKeys []key
	for k, ds := range unmatched {
		if len(ds) > 0 {
			leftoverKeys = append(leftoverKeys, k)
		}
	}
	sort.Slice(leftoverKeys, func(i, j int) bool {
		if leftoverKeys[i].file != leftoverKeys[j].file {
			return leftoverKeys[i].file < leftoverKeys[j].file
		}
		return leftoverKeys[i].line < leftoverKeys[j].line
	})
	for _, k := range leftoverKeys {
		for _, d := range unmatched[k] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func describe(ds []lint.Diagnostic) string {
	if len(ds) == 0 {
		return "no diagnostics on this line"
	}
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("%s: %s", d.Analyzer, d.Message))
	}
	return strings.Join(parts, "; ")
}
