// Package directive exercises validation of the //stat4: comments
// themselves: a mistyped or misplaced directive must fail the run rather
// than silently disabling a check.
package directive

//stat4:datapath placed on a var // want "must appear in the doc comment of a function declaration, not another kind of declaration"
var NotAFunction uint64

//stat4:reference placed on a type // want "must appear in the doc comment of a function declaration, not another kind of declaration"
type AlsoNotAFunction struct{}

func body() {
	//stat4:datapath // want "must appear in the doc comment of a function declaration"
	_ = NotAFunction
}

//stat4:frobnicate // want "unknown //stat4: directive"
func unknownVerb() {}

//stat4:exempt // want "needs an analyzer name"
func bareExempt() {}

//stat4:exempt:nosuchcheck reason // want "names an unknown analyzer"
func unknownAnalyzer() {}

//stat4:exempt:directive reason // want "the directive check cannot be exempted"
func exemptTheValidator() {}

/* want "needs a reason" */ //stat4:exempt:nodivide
func exemptWithoutReason(a, b uint64) uint64 {
	return a / b
}

func lineExemptWithoutReason(a, b uint64) uint64 {
	return a / b /* want "needs a reason" */ //stat4:exempt:nodivide
}

// Conflicted carries both annotations, which is contradictory.
//
//stat4:datapath
//stat4:reference exact version // want "is marked both"
func Conflicted() {}
