package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// FuncKind classifies a function's //stat4: annotation.
type FuncKind int

// Function annotation kinds.
const (
	KindNone      FuncKind = iota
	KindDatapath           // //stat4:datapath — switch-feasibility enforced
	KindReference          // //stat4:reference — exact/host-only, must not be reached from the datapath
)

// Directive is the pseudo-analyzer validating //stat4: comments themselves:
// a mistyped directive must fail the build, not silently disable a check.
var Directive = &Analyzer{
	Name: "directive",
	Doc:  "//stat4: directives are well-formed and correctly placed",
}

// directives is the module-wide index of //stat4: annotations.
type directives struct {
	kinds      map[*ast.FuncDecl]FuncKind
	funcExempt map[*ast.FuncDecl]map[string]bool
	// lineExempt maps filename -> line -> exempted analyzer names. An
	// exemption covers diagnostics on its own line and on the line below,
	// so it works both trailing a statement and on the line above one.
	lineExempt map[string]map[int][]string
	diags      []Diagnostic
}

// collectDirectives scans every comment of every module file. knownAnalyzers
// is the set of names valid after exempt:.
func collectDirectives(mod *Module, knownAnalyzers map[string]bool) *directives {
	d := &directives{
		kinds:      make(map[*ast.FuncDecl]FuncKind),
		funcExempt: make(map[*ast.FuncDecl]map[string]bool),
		lineExempt: make(map[string]map[int][]string),
	}
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			d.collectFile(mod.Fset, file, knownAnalyzers)
		}
	}
	return d
}

func (d *directives) collectFile(fset *token.FileSet, file *ast.File, known map[string]bool) {
	// Map each doc-comment group to its function declaration, so directives
	// found there can be attached (and directives elsewhere rejected).
	funcDoc := make(map[*ast.CommentGroup]*ast.FuncDecl)
	var otherDoc []*ast.CommentGroup // docs of non-function declarations
	for _, decl := range file.Decls {
		switch dd := decl.(type) {
		case *ast.FuncDecl:
			if dd.Doc != nil {
				funcDoc[dd.Doc] = dd
			}
		case *ast.GenDecl:
			if dd.Doc != nil {
				otherDoc = append(otherDoc, dd.Doc)
			}
		}
	}
	isOtherDoc := func(g *ast.CommentGroup) bool {
		for _, og := range otherDoc {
			if og == g {
				return true
			}
		}
		return false
	}

	for _, group := range file.Comments {
		decl := funcDoc[group]
		for _, c := range group.List {
			body, ok := trimDirective(c.Text)
			if !ok {
				continue
			}
			d.parseOne(fset, c, body, decl, isOtherDoc(group), known)
		}
	}
}

// parseOne handles a single //stat4:<verb>[ reason] comment. decl is non-nil
// when the comment sits in a function's doc group.
func (d *directives) parseOne(fset *token.FileSet, c *ast.Comment, body string, decl *ast.FuncDecl, onOtherDecl bool, known map[string]bool) {
	verb := body
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		verb = body[:i]
	}
	switch {
	case verb == "datapath", verb == "reference":
		if decl == nil {
			where := "a function declaration"
			if onOtherDecl {
				where = "a function declaration, not another kind of declaration"
			}
			d.errorf(fset, c.Pos(), "//stat4:%s must appear in the doc comment of %s", verb, where)
			return
		}
		kind := KindDatapath
		if verb == "reference" {
			kind = KindReference
		}
		if prev, ok := d.kinds[decl]; ok && prev != kind {
			d.errorf(fset, c.Pos(), "function %s is marked both //stat4:datapath and //stat4:reference", funcName(decl))
			return
		}
		d.kinds[decl] = kind
	case verb == "exempt" || strings.HasPrefix(verb, "exempt:"):
		name := strings.TrimPrefix(verb, "exempt:")
		if name == "" || name == "exempt" {
			d.errorf(fset, c.Pos(), "//stat4:exempt needs an analyzer name: //stat4:exempt:<analyzer> <reason>")
			return
		}
		if !known[name] {
			d.errorf(fset, c.Pos(), "//stat4:exempt:%s names an unknown analyzer", name)
			return
		}
		if name == Directive.Name {
			d.errorf(fset, c.Pos(), "the directive check cannot be exempted")
			return
		}
		if strings.TrimSpace(body[len(verb):]) == "" {
			d.errorf(fset, c.Pos(), "//stat4:exempt:%s needs a reason: //stat4:exempt:%s <reason>", name, name)
			return
		}
		if decl != nil {
			// In a function's doc comment: exempts the whole function
			// from that analyzer.
			if d.funcExempt[decl] == nil {
				d.funcExempt[decl] = make(map[string]bool)
			}
			d.funcExempt[decl][name] = true
			return
		}
		pos := fset.Position(c.Pos())
		if d.lineExempt[pos.Filename] == nil {
			d.lineExempt[pos.Filename] = make(map[int][]string)
		}
		d.lineExempt[pos.Filename][pos.Line] = append(d.lineExempt[pos.Filename][pos.Line], name)
	default:
		d.errorf(fset, c.Pos(), "unknown //stat4: directive %q (want datapath, reference or exempt:<analyzer>)", verb)
	}
}

func (d *directives) errorf(fset *token.FileSet, pos token.Pos, format string, args ...interface{}) {
	d.diags = append(d.diags, Diagnostic{
		Pos:      fset.Position(pos),
		Analyzer: Directive.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// exempted reports whether a diagnostic from analyzer at pos inside decl is
// covered by an exemption directive.
func (d *directives) exempted(fset *token.FileSet, analyzer string, decl *ast.FuncDecl, pos token.Pos) bool {
	if decl != nil && d.funcExempt[decl][analyzer] {
		return true
	}
	p := fset.Position(pos)
	lines := d.lineExempt[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

func funcName(decl *ast.FuncDecl) string {
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		return fmt.Sprintf("(%s).%s", typeText(decl.Recv.List[0].Type), decl.Name.Name)
	}
	return decl.Name.Name
}

func typeText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeText(t.X)
	case *ast.IndexExpr:
		return typeText(t.X)
	case *ast.IndexListExpr:
		return typeText(t.X)
	default:
		return "?"
	}
}

// kindOf returns decl's annotation.
func (d *directives) kindOf(decl *ast.FuncDecl) FuncKind { return d.kinds[decl] }
