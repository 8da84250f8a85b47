package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Package is one type-checked module package under analysis.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the set of packages the checker sees: the module's own packages
// loaded from source (analyzable) plus export-data imports for everything
// else (opaque).
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package // dependency order: callees before callers
	// Dir is the module root, where Link builds the roots ("" for
	// modules not loaded by LoadModule).
	Dir string
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// LoadModule loads the packages matched by patterns (and their in-module
// dependencies) from source, type-checking them against compiler export data
// for out-of-module imports. dir is the working directory for `go list`
// (typically the module root; "" uses the process working directory).
func LoadModule(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	out, err := goCmd(dir, append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}

	var sourcePkgs []*listedPackage
	mod := &Module{Fset: token.NewFileSet()}
	exports := make(map[string]string) // import path -> export data file
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if !p.Standard && p.Module != nil {
			// In-module package: analyze from source. `go list -deps`
			// emits dependencies before dependents, so processing in
			// order sees every callee before its callers.
			sourcePkgs = append(sourcePkgs, &p)
			mod.Dir = p.Module.Dir
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := mod.Fset
	byPath := make(map[string]*Package)
	imp := &moduleImporter{
		source: byPath,
		binary: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}

	for _, lp := range sourcePkgs {
		pkg, err := typeCheck(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		byPath[lp.ImportPath] = pkg
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}

// typeCheck parses and type-checks one package from source.
func typeCheck(fset *token.FileSet, imp types.Importer, path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		fn := name
		if !filepath.IsAbs(fn) {
			fn = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	cfg := &types.Config{Importer: imp}
	tpkg, err := cfg.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Files: files, Types: tpkg, Info: info}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// moduleImporter resolves in-module imports to source-checked packages and
// everything else through compiler export data.
type moduleImporter struct {
	source map[string]*Package
	binary types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.source[path]; ok {
		return p.Types, nil
	}
	return m.binary.Import(path)
}

// fileOf returns the *ast.File containing pos within pkg, or nil.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// trimDirective strips the comment marker from a //stat4: comment.
func trimDirective(text string) (string, bool) {
	if !strings.HasPrefix(text, "//stat4:") {
		return "", false
	}
	return strings.TrimPrefix(text, "//stat4:"), true
}
