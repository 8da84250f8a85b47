package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one switch-feasibility check. CheckFunc is invoked once per
// function in the datapath closure; it walks the function body and reports
// violations through the Pass. ModuleFunc is invoked once per Run with the
// whole module in view, for properties that live across functions and
// packages (an analyzer may define either or both; both may be nil for
// analyzers whose diagnostics come from the framework itself).
type Analyzer struct {
	Name string
	Doc  string
	// CheckFunc inspects one datapath function.
	CheckFunc func(pass *Pass)
	// ModuleFunc inspects the whole module at once.
	ModuleFunc func(pass *ModulePass)
}

// Analyzers is the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDivide,
		NoFloat,
		BoundedLoop,
		NoMapRange,
		ShiftConst,
		AllocFree,
		AtomicSafe,
		Directive,
	}
}

// AnalyzerNames returns the set of analyzer names valid in
// //stat4:exempt:<name> directives: the suite plus the standalone-only
// reachable pass.
func AnalyzerNames() map[string]bool {
	m := map[string]bool{reachableName: true}
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way compilers do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries the state one analyzer sees while checking one function of
// the datapath closure.
type Pass struct {
	Analyzer *Analyzer
	Mod      *Module
	Pkg      *Package
	// Decl is the function under check and Func its type-checker object.
	Decl *ast.FuncDecl
	Func *types.Func

	run *run
}

// TypesInfo returns the type information of the function's package.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos unless an exemption covers it: a
// //stat4:exempt:<analyzer> in the function's doc comment, or one on the
// same line as pos or the line directly above it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.run.reportf(p.Analyzer.Name, p.Decl, pos, format, args...)
}

// ModulePass carries the state a module-level analyzer sees: the whole
// loaded module, not one closure function.
type ModulePass struct {
	Analyzer *Analyzer
	Mod      *Module

	run *run
}

// Reportf records a diagnostic at pos in pkg. Exemptions work as for
// Pass.Reportf; the enclosing function declaration (if any) is located so
// doc-comment exemptions apply to module-level findings too.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	p.run.reportf(p.Analyzer.Name, enclosingFuncDecl(pkg, pos), pos, format, args...)
}

// enclosingFuncDecl finds the function declaration containing pos, or nil.
func enclosingFuncDecl(pkg *Package, pos token.Pos) *ast.FuncDecl {
	file := fileOf(pkg, pos)
	if file == nil {
		return nil
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// run is the mutable state of one Run invocation.
type run struct {
	mod   *Module
	dirs  *directives
	diags []Diagnostic
}

func (r *run) reportf(analyzer string, decl *ast.FuncDecl, pos token.Pos, format string, args ...interface{}) {
	if r.dirs.exempted(r.mod.Fset, analyzer, decl, pos) {
		return
	}
	r.diags = append(r.diags, Diagnostic{
		Pos:      r.mod.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzer suite over a loaded module and returns the
// diagnostics sorted by position.
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	r := &run{mod: mod}
	r.dirs = collectDirectives(mod, AnalyzerNames())

	// Directive well-formedness diagnostics are unconditional: a broken
	// directive must never silently disable a check.
	r.diags = append(r.diags, r.dirs.diags...)

	graph := buildCallGraph(mod)
	closure := graph.datapathClosure(r)

	// Recursion: any closure function in a call cycle is unbounded.
	for _, t := range graph.cycleMembers(closure) {
		r.reportf(BoundedLoop.Name, t.decl, t.decl.Pos(),
			"datapath function %s participates in a call cycle (recursion is not implementable on a P4 target)",
			t.obj.Name())
	}

	for _, t := range closure {
		for _, a := range analyzers {
			if a.CheckFunc == nil {
				continue
			}
			a.CheckFunc(&Pass{
				Analyzer: a,
				Mod:      mod,
				Pkg:      t.pkg,
				Decl:     t.decl,
				Func:     t.obj,
				run:      r,
			})
		}
	}

	for _, a := range analyzers {
		if a.ModuleFunc == nil {
			continue
		}
		a.ModuleFunc(&ModulePass{Analyzer: a, Mod: mod, run: r})
	}

	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return r.diags
}
