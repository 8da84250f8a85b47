package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
)

// reachableName is the reachable pass's name in //stat4:exempt:reachable.
const reachableName = "reachable"

// Linked is the set of functions the module's root binaries link, keyed as
// declKey spells a declaration.
type Linked map[string]bool

// Link builds the module's roots, each main package under the module root
// at dir and the root package's test binary (the benchmarks behind
// BENCH_*.json) when the root holds a package, and reads back every function
// they link. Inlining is off, so every function a binary reaches keeps a
// symbol: the linker's dead-code pass is the reachability analysis, exact
// where a source-level one would guess (standard-library callbacks such as
// String or ServeHTTP, reflection, generics).
func Link(dir string) (Linked, error) {
	tmp, err := os.MkdirTemp("", "stat4-lint-link")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if _, err := goCmd(dir, "build", "-gcflags=all=-l", "-o", tmp+string(filepath.Separator), "./..."); err != nil {
		return nil, err
	}
	if gofiles, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(gofiles) > 0 {
		if _, err := goCmd(dir, "test", "-c", "-gcflags=all=-l", "-o", filepath.Join(tmp, "root.test"), "."); err != nil {
			return nil, err
		}
	}
	bins, err := os.ReadDir(tmp)
	if err != nil {
		return nil, err
	}
	linked := make(Linked)
	for _, b := range bins {
		out, err := goCmd(dir, "tool", "nm", filepath.Join(tmp, b.Name()))
		if err != nil {
			return nil, err
		}
		bin := strings.TrimSuffix(b.Name(), ".exe")
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr T name": a text symbol. A generic instantiation's
			// name may hold spaces inside its brackets.
			f := strings.Fields(sc.Text())
			if len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked.add(bin, strings.Join(f[2:], " "))
			}
		}
	}
	return linked, nil
}

// add records the declarations one linked symbol of binary bin stands for.
// Instantiations (ReadShard[…], (*View[…]).Body) map back to their generic
// declaration, closures (F.func1, glob..func1) and method-value wrappers
// (M-fm) to the function that holds them, and every dotted prefix is
// recorded, so (*T).M.func1 marks T.M. Package main is keyed by binary,
// since every command shares that symbol prefix.
func (l Linked) add(bin, sym string) {
	pkg, parts := splitSymbol(bin, sym)
	key := pkg
	for _, part := range parts {
		key += "." + part
		l[key] = true
	}
}

// linkedAs reports whether the symbol a //go:linkname directive names is
// linked, keyed as add keys it.
func (l Linked) linkedAs(sym string) bool {
	pkg, parts := splitSymbol("", sym)
	return len(parts) > 0 && l[pkg+"."+strings.Join(parts, ".")]
}

// splitSymbol splits a symbol of binary bin into its package, as Linked
// keys it, and the dotted parts after that, with type arguments, pointer
// receivers' parentheses and method-value suffixes removed. A symbol with no
// package has no parts.
func splitSymbol(bin, sym string) (pkg string, parts []string) {
	sym = stripBrackets(sym)
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return "", nil
	}
	pkg, rest := sym[:slash+1+dot], sym[slash+2+dot:]
	if pkg == "main" {
		pkg = "main:" + bin
	}
	rest = strings.NewReplacer("(*", "", ")", "", "-fm", "").Replace(rest)
	return pkg, strings.Split(rest, ".")
}

// linknames maps each local name a file's //go:linkname directives bind to
// the symbol it names.
func linknames(file *ast.File) map[string]string {
	out := make(map[string]string)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if f := strings.Fields(c.Text); len(f) == 3 && f[0] == "//go:linkname" {
				out[f[1]] = f[2]
			}
		}
	}
	return out
}

// stripBrackets removes every bracketed (type-argument) span from sym.
func stripBrackets(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declKey spells a declaration of pkg as Linked keys it.
func declKey(pkg *Package, decl *ast.FuncDecl) string {
	key := pkg.Path
	if pkg.Types.Name() == "main" {
		key = "main:" + path.Base(pkg.Path)
	}
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		key += "." + strings.TrimPrefix(typeText(decl.Recv.List[0].Type), "*")
	}
	return key + "." + decl.Name.Name
}

// Reachable is the pass that reports every function and method declared in
// a non-test file of the module that no root binary links (see Link). A
// method with an empty body is no finding: it marks a sealed interface, and
// the linker drops it. A bodyless function that a //go:linkname directive
// links to another symbol (runtime.mallocgc, say) is linked when that symbol
// is: a binary holds it under the target's name, not the declaring
// package's. It needs the whole program built, so only the standalone
// driver runs it.
func Reachable(linked Linked) *Analyzer {
	return &Analyzer{
		Name: reachableName,
		Doc:  "every function in a non-test file is linked by a binary of the module",
		ModuleFunc: func(pass *ModulePass) {
			for _, pkg := range pass.Mod.Pkgs {
				for _, file := range pkg.Files {
					links := linknames(file)
					for _, d := range file.Decls {
						decl, ok := d.(*ast.FuncDecl)
						if !ok || decl.Name.Name == "_" || linked[declKey(pkg, decl)] {
							continue
						}
						if decl.Recv != nil && decl.Body != nil && len(decl.Body.List) == 0 {
							continue
						}
						if target, ok := links[decl.Name.Name]; ok && decl.Body == nil && linked.linkedAs(target) {
							continue
						}
						pass.Reportf(pkg, decl.Name.Pos(),
							"%s.%s is linked by no binary of the module: delete it, move it into a _test.go file, or exempt it with a reason",
							pkg.Types.Name(), funcName(decl))
					}
				}
			}
		},
	}
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
