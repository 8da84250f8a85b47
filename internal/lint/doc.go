// Package lint statically enforces the switch-feasibility discipline of
// "Stats 101 in P4" on the Go reference implementation: every per-packet
// Stat4 routine must be integer-only, division-free, loop-free, bounded,
// allocation-free straight-line code (Section 2 of the paper). The Go
// compiler checks none of that, so this package turns the paper's
// constraints into machine-checked invariants.
//
// Functions opt in with a //stat4:datapath directive in their doc comment.
// The checker computes the transitive closure of module functions reachable
// from the annotated roots and runs every analyzer over each function in the
// closure:
//
//   - nodivide:    no /, %, or math.Sqrt-family calls (Section 2: "there is
//     no division")
//   - nofloat:     no floating-point types, literals or conversions
//   - boundedloop: no for/range loops, goto, or recursion (call-graph SCC)
//   - nomaprange:  no map iteration (ordering nondeterminism breaks replay)
//   - shiftconst:  shift amounts must be compile-time constants
//   - allocfree:   no heap allocation — make/new/append, closures, defer/go,
//     string building, fmt, interface boxing (state is provisioned at
//     compile time; a switch has no per-packet allocator)
//   - directive:   the //stat4: directives themselves are well-formed
//
// One analyzer reasons module-wide rather than per function (via the
// Analyzer.ModuleFunc hook):
//
//   - atomicsafe:  a variable accessed through sync/atomic anywhere must be
//     accessed atomically everywhere, and typed sync/atomic values must
//     never be copied — a half-disciplined cell races under sharding
//
// Two further passes analyze compiled Stat4 programs instead of Go source
// (ProgramAnalyzers / RunPrograms; no //stat4: directive applies to them —
// their exemptions live on the p4.Program API):
//
//   - stagebudget: p4.AllocateStages must place the program's control flow
//     within the stage budget of the target model (stages × ALUs, hash
//     units, register actions, tables, SRAM)
//   - mergelaw:    every register declares its MergeKind; MergeSum cells
//     are only mutated additively (flow-sensitive provenance over the
//     action IR); MergeDerived cells are recomputed by canonicalization or
//     documented
//
// Exact or host-only routines opt out with //stat4:reference; reaching one
// from the datapath closure is itself an error. Individual constructs that
// are feasible on the target but not expressible as straight-line Go (for
// example a loop over compile-time configuration that the P4 program
// unrolls) carry a //stat4:exempt:<analyzer> directive with a justification.
//
// The package has no dependencies outside the standard library: packages are
// loaded with `go list -export -deps -json`, module sources are type-checked
// with go/types, and external dependencies are imported from compiler export
// data. The cmd/stat4-lint driver runs the suite standalone or as a
// `go vet -vettool` backend, and emits JSON diagnostics with -json.
package lint
