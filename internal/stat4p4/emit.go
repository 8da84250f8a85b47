// Package stat4p4 emits the Stat4 library as a P4 program for the simulator
// in internal/p4 — the in-switch counterpart of the reference semantics in
// internal/core. The generated program implements Figure 4 of the paper:
//
//   - register arrays sized by the STAT_COUNTER_NUM / STAT_COUNTER_SIZE
//     macros hold the tracked distributions (one counter per value), their
//     squared shadows, and a per-distribution metadata block (N, Xsum,
//     Xsumsq, variance, standard deviation, window and median state);
//   - binding tables, populated by the controller at runtime, decide which
//     packets update which distribution and how the value of interest is
//     extracted, without recompiling the program;
//   - the moment updates, the Figure 2 square-root if-tree, the Figure 3
//     one-step percentile movement and the mean+kσ anomaly check run in the
//     per-packet control flow, pushing digests to the controller on anomaly.
//
// Two emission modes mirror the paper's target discussion: the default
// behavioral-model mode multiplies runtime values directly (as bmv2 can),
// while Strict mode replaces every runtime multiplication with the shift
// approximations of Section 2 so the program validates against
// p4.TargetStrict.
package stat4p4

import (
	"fmt"
	"math/bits"

	"stat4/internal/p4"
)

// Register names of the emitted program. The counter and square arrays hold
// Slots×Size cells (distribution i owns [i·Size, (i+1)·Size)); every
// statistical measure has its own per-slot array so that updates to
// different measures carry no dependency on one another — a write to stat.n
// never serialises against a write to stat.xsum.
const (
	RegCounters = "stat.counters" // the tracked values, one cell per value
	RegSquares  = "stat.sq"       // squared shadows for window eviction
	RegN        = "stat.n"        // number of values in the distribution
	RegXsum     = "stat.xsum"     // Σ xi
	RegXsumsq   = "stat.xsumsq"   // Σ xi²
	RegVar      = "stat.var"      // N·Xsumsq − Xsum²
	RegSD       = "stat.sd"       // approximate sqrt of the variance
	RegHead     = "stat.head"     // window: next cell to overwrite
	RegLastInt  = "stat.lastint"  // window: interval id being accumulated
	RegIntInit  = "stat.intinit"  // window: 1 once lastint is valid
	RegCur      = "stat.cur"      // window: current interval accumulator
	RegCurSq    = "stat.cursq"    // window: running square of stat.cur
	RegMed      = "stat.med"      // percentile marker position
	RegLow      = "stat.low"      // combined frequency below the marker
	RegHigh     = "stat.high"     // combined frequency above the marker
	RegMedInit  = "stat.medinit"  // 1 once the marker is seeded
	RegMedMoves = "stat.medmoves" // total marker movements (percentile change rate)
)

// ScalarRegisters lists the per-slot scalar arrays (everything except the
// counter and square arrays), in a stable order.
var ScalarRegisters = []string{
	RegN, RegXsum, RegXsumsq, RegVar, RegSD, RegHead, RegLastInt,
	RegIntInit, RegCur, RegCurSq, RegMed, RegLow, RegHigh, RegMedInit,
	RegMedMoves,
}

// EchoBias re-exports the parser's bias that shifts the signed echo test
// integer into unsigned counter-index space.
const EchoBias = p4.EchoBias

// Distribution kinds in the emitted program (field m.kind).
const (
	kindFreq   = 0
	kindWindow = 1
	// 2 is an unused hole (the retired hash-bucket mode). The measure rows
	// take 3 and up, each in its own file, and keep their values so the
	// emitted programs stay byte-identical.
)

// Options sizes the emitted program.
type Options struct {
	// Slots is STAT_COUNTER_NUM: distributions trackable simultaneously.
	Slots int
	// Size is STAT_COUNTER_SIZE: counter cells per distribution.
	Size int
	// Stages is the number of binding tables applied in sequence; each
	// matched stage updates one distribution per packet. The paper's
	// case-study program uses two.
	Stages int
	// Echo adds the Figure 5 echo application: echo requests update slot 0
	// and are answered with the refreshed statistical measures.
	Echo bool
	// Strict emits only TargetStrict-legal code: runtime multiplications
	// are replaced by one-term shift approximations (variance becomes
	// approximate), the anomaly threshold is fixed at 2σ, percentile
	// weights are fixed at 1:1 (median), and the window N·x scaling uses
	// StrictCapShift. Accuracy consequences are quantified by the
	// ablation benchmarks.
	Strict bool
	// StrictCapShift is log2 of the window capacity used in Strict mode
	// (every strict window must have capacity 1<<StrictCapShift).
	StrictCapShift uint
	// DigestBuf is the digest channel capacity (0 → default).
	DigestBuf int
	// CellWidth is the register cell width in bits (default 64). The
	// resource analysis of a deployable configuration uses 32, like the
	// paper's bmv2 program; the functional tests use 64 so the moments
	// never wrap.
	CellWidth p4.Width
	// BindEntries caps each binding table (default 64 entries).
	BindEntries int
	// FwdEntries caps the forwarding table (default 64 routes).
	FwdEntries int
	// NoVariance drops the variance/sqrt/check logic from the control
	// flow, leaving counters, moments and the window override. It exists
	// for dependency-chain analysis (the paper's 12-step figure covers
	// only the circular-buffer override), not for deployment.
	NoVariance bool
	// Entropy adds the integer-only entropy measure (entropy.go): per-cell
	// contributions f·log2fix(f), their per-slot sum and a division-free
	// collapse check. It needs runtime multiplication, so not with Strict.
	Entropy bool
	// EntropyFrac is the fixed-point fractional width of the entropy log2
	// (default 16, max intstat.Log2MaxFrac); thresholds are in the same
	// scale, h0 = bits·2^EntropyFrac.
	EntropyFrac uint
	// HeavyHitter adds the probabilistic-recirculation heavy-hitter path
	// (heavyhitter.go). It needs no runtime multiplication, so it composes
	// with Strict.
	HeavyHitter bool
	// HHTableSize is the candidate-table capacity per slot (default 16,
	// power of two).
	HHTableSize int
	// FlowTable adds the flow-table addressing mode (flowtable.go), the
	// Section 5 memory extension. Its evictions need runtime multiplication,
	// so not with Strict.
	FlowTable bool
	// FlowTableSize is the flow-table bucket count per slot (default 1024,
	// power of two ≥ 4; half probed by each hash).
	FlowTableSize int
}

// DefaultOptions matches the case-study defaults: 8 distribution slots of
// 256 cells, two binding stages, echo support off.
var DefaultOptions = Options{Slots: 8, Size: 256, Stages: 2}

// Library is the emitted program plus the handles the runtime and the echo
// deparser need.
type Library struct {
	Prog *p4.Program
	Std  p4.StdFields
	Opts Options

	// BindTables holds the binding table names, one per stage.
	BindTables []string

	f      fields          // scratch and reply field handles
	leaves map[string]bool // the MSB trees' leaf-action prefixes declared so far
}

// fields collects the metadata fields the core logic uses, and the probe
// scratch (h1 … ok, t1, t2) the heavy-hitter and flow-table measures share.
// A measure's private scratch is declared by its row (measure.scratch).
type fields struct {
	enable, kind, base, slotid          p4.FieldID
	val, size, pa, pb, k, cap, curint   p4.FieldID
	idx, f, n, xsum, xsumsq, sd         p4.FieldID
	nss, ss, sqin, sqout, t1, t2        p4.FieldID
	med, low, high, minit, fmed         p4.FieldID
	lhs, rhs, lhs2, rhs2                p4.FieldID
	init, last, cur, cursq, head, old   p4.FieldID
	oldsq, nx, ksd, thr, alertval, fnew p4.FieldID
	h1, h2, k1, u1, k2, u2, ok          p4.FieldID
	delta, dsq                          p4.FieldID
	doSqrt, doCheck                     p4.FieldID
	repValid                            p4.FieldID
}

// Check fills in the defaults of the sizing fields left at zero and reports
// the first option the program cannot be emitted with: the core sizing, then
// each measure that is on, in table order. Build panics on its error, since
// options are compile-time configuration; a tool that takes its sizing from
// the user checks first.
func (o *Options) Check() error {
	if o.Slots <= 0 || o.Size <= 0 || o.Stages <= 0 {
		return fmt.Errorf("stat4p4: non-positive option in %+v", *o)
	}
	if o.Strict && o.StrictCapShift == 0 {
		o.StrictCapShift = uint(bits.Len(uint(o.Size))) - 1
	}
	if o.CellWidth == 0 {
		o.CellWidth = 64
	}
	if o.BindEntries <= 0 {
		o.BindEntries = 64
	}
	if o.FwdEntries <= 0 {
		o.FwdEntries = 64
	}
	for _, m := range measures {
		if *m.on(o) {
			if err := m.sizing(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// Build emits the Stat4 program. It panics when Options.Check refuses the
// options.
func Build(opts Options) *Library {
	if err := opts.Check(); err != nil {
		panic(err)
	}
	prog := p4.NewProgram("stat4")
	if opts.Strict {
		prog.Target = p4.TargetStrict
	}
	std := p4.DeclareStdFields(prog)
	lib := &Library{Prog: prog, Std: std, Opts: opts, leaves: make(map[string]bool)}
	lib.declareFields()
	lib.declareRegisters()
	lib.declareBindActions()
	lib.declareUpdateActions()
	for _, m := range measures {
		if *m.on(&opts) {
			m.declare(lib)
		}
	}
	lib.declareTables()
	lib.buildControl()
	if opts.Echo {
		prog.SetDeparserReads(lib.echoReads()...)
	}
	return lib
}

func (l *Library) declareFields() {
	l.f = coreFields(l.Prog.AddField)
	for _, m := range measures {
		m.scratch(l.Prog.AddField)
	}
}

// coreFields declares the core fields through f, a row of the struct per
// line and in its order: the order the goldens pin.
func coreFields(f fieldFunc) fields {
	w := func(name string) p4.FieldID { return f(name, 64) }
	return fields{
		enable: f("m.enable", 1), kind: f("m.kind", 3), base: w("m.base"), slotid: w("m.slotid"),
		val: w("m.val"), size: w("m.size"), pa: w("m.pa"), pb: w("m.pb"), k: w("m.k"), cap: w("m.cap"), curint: w("m.curint"),
		idx: w("m.idx"), f: w("m.f"), n: w("m.n"), xsum: w("m.xsum"), xsumsq: w("m.xsumsq"), sd: w("m.sd"),
		nss: w("m.nss"), ss: w("m.ss"), sqin: w("m.sqin"), sqout: w("m.sqout"), t1: w("m.t1"), t2: w("m.t2"),
		med: w("m.med"), low: w("m.low"), high: w("m.high"), minit: w("m.minit"), fmed: w("m.fmed"),
		lhs: w("m.lhs"), rhs: w("m.rhs"), lhs2: w("m.lhs2"), rhs2: w("m.rhs2"),
		init: w("m.init"), last: w("m.last"), cur: w("m.cur"), cursq: w("m.cursq"), head: w("m.head"), old: w("m.old"),
		oldsq: w("m.oldsq"), nx: w("m.nx"), ksd: w("m.ksd"), thr: w("m.thr"), alertval: w("m.alertval"), fnew: w("m.fnew"),
		h1: w("m.h1"), h2: w("m.h2"), k1: w("m.k1"), u1: w("m.u1"), k2: w("m.k2"), u2: w("m.u2"), ok: f("m.ok", 1),
		delta: w("m.delta"), dsq: w("m.dsq"),
		doSqrt: f("m.do_sqrt", 1), doCheck: f("m.do_check", 1),
		repValid: f("m.rep_valid", 1),
	}
}

// field is a declared field's ID: how a measure reaches its row's scratch.
func (l *Library) field(name string, _ p4.Width) p4.FieldID {
	id, ok := l.Prog.FieldByName(name)
	if !ok {
		panic(fmt.Sprintf("stat4p4: field %q not declared", name))
	}
	return id
}

func (l *Library) declareRegisters() {
	cells := l.Opts.Slots * l.Opts.Size
	w := l.Opts.CellWidth
	// Only the counter array is additive across replicas (MergeSum, the
	// default): it holds the tracked distribution itself, a plain sum over
	// observations. Everything else — squared shadows, moments, variance,
	// window and marker state — is a per-replica derivation of it
	// (Σ(f+g)² ≠ Σf² + Σg²), so merged snapshots zero those registers and
	// CanonicalizeSnapshot recomputes them from the merged counters.
	l.Prog.AddRegister(RegCounters, cells, w)
	l.Prog.SetRegisterMerge(RegCounters, p4.MergeSum)
	l.Prog.AddRegister(RegSquares, cells, w)
	l.Prog.SetRegisterMerge(RegSquares, p4.MergeDerived)
	for _, name := range ScalarRegisters {
		l.Prog.AddRegister(name, l.Opts.Slots, w)
		l.Prog.SetRegisterMerge(name, p4.MergeDerived)
	}
	// The mergelaw pass demands either a slot in CanonicalizeSnapshot's
	// recompute set or a documented reason for every MergeDerived register.
	// The moments/variance/median block is recomputed; the rest is not:
	l.Prog.SetMergeWhy(RegSquares,
		"squared shadow of the window cells; rebuilt cell-wise by the next win_fold, meaningless across shards")
	for reg, why := range map[string]string{
		RegHead:     "circular-buffer cursor, clock-driven and replica-local",
		RegLastInt:  "interval id being accumulated, clock-driven and replica-local",
		RegIntInit:  "validity latch for lastint, replica-local",
		RegCur:      "current-interval accumulator; window merge goes through core.Window.MergeFrom, not cell addition",
		RegCurSq:    "running square of the current interval; recomputed from cur on the next fold",
		RegMedMoves: "marker-movement odometer, a per-replica diagnostic",
	} {
		l.Prog.SetMergeWhy(reg, why)
	}
	// win_fold overwrites the oldest window cell with the completed
	// interval — the one sanctioned non-additive write to the counter
	// array. The merged view stays correct because window state merges
	// through the shared-clock core path, never by summing slots.
	l.Prog.ExemptMergeWrite("win_fold", RegCounters,
		"circular-buffer override: the window replaces its oldest slot; slots merge via core.Window, not cell addition")
}

// Binding action parameter layout (shared prefix):
//
//	P0 slotBase = slot*Size (cell base in RegCounters/RegSquares)
//	P1 slotID   = slot (indexes the scalar registers, carried into digests)
//
// frequency actions add: P2.. extraction parameters, then size, pa, pb, k.
// the window action adds: P2 intervalShift, P3 capacity, P4 k.
func (l *Library) declareBindActions() {
	f := &l.f
	std := l.Std
	common := func() []p4.Op {
		return []p4.Op{
			p4.Mov(f.base, p4.P(0)),
			p4.Mov(f.slotid, p4.P(1)),
			p4.Mov(f.enable, p4.C(1)),
		}
	}

	// bind_freq_<hdr>(slotBase, slot, [shift,] base, size, pa, pb, k):
	// value = (header [>> shift]) − base. k ≥ 1 arms the outlier check at
	// k·σ; k = 0 disables it. The base is subtracted with WRAPPING
	// arithmetic: a value below the base wraps to a huge number, fails the
	// val < size guard in the control flow, and the packet is skipped — it
	// must not alias into counter 0. A shift selects the granularity (on
	// ipv4.dst: 24 → /8 prefix index, 8 → /24 index, 0 → host); the echo
	// test integer and the IP protocol are taken whole, and the frame length
	// shifted makes the packet-size distribution.
	for _, a := range []struct {
		name    string
		hdr     p4.FieldID
		shifted bool
	}{
		{"bind_freq_echo", std.EchoValue, false},
		{"bind_freq_dst", std.IPv4Dst, true},
		{"bind_freq_dport", std.TCPDport, true},
		{"bind_freq_proto", std.IPv4Proto, false},
		{"bind_freq_len", std.WireLen, true},
	} {
		ops, p := common(), 2 // p: the base parameter
		if a.shifted {
			ops = append(ops, p4.Shr(f.t1, p4.F(a.hdr), p4.P(2)), p4.Sub(f.val, p4.F(f.t1), p4.P(3)))
			p = 3
		} else {
			ops = append(ops, p4.Sub(f.val, p4.F(a.hdr), p4.P(2)))
		}
		ops = append(ops,
			p4.Mov(f.kind, p4.C(kindFreq)),
			p4.Mov(f.size, p4.P(p+1)),
			p4.Mov(f.pa, p4.P(p+2)),
			p4.Mov(f.pb, p4.P(p+3)),
			p4.Mov(f.k, p4.P(p+4)),
		)
		l.Prog.AddAction(p4.NewAction(a.name, p+5, ops...))
	}

	// bind_window(slotBase, slot, intervalShift, capacity, k):
	// packets-per-interval window; interval id = ts >> intervalShift.
	l.Prog.AddAction(p4.NewAction("bind_window", 5, append(common(),
		p4.Mov(f.kind, p4.C(kindWindow)),
		p4.Shr(f.curint, p4.F(std.TsNs), p4.P(2)),
		p4.Mov(f.cap, p4.P(3)),
		p4.Mov(f.k, p4.P(4)),
		p4.Mov(f.delta, p4.C(1)),
	)...))
	if !l.Opts.Strict {
		// bind_window_bytes: bytes-per-interval window ("traffic volumes
		// over time"); each packet contributes its wire length. The
		// squared accumulator then needs runtime multiplication, so the
		// action exists only on multiply-capable targets.
		l.Prog.AddAction(p4.NewAction("bind_window_bytes", 5, append(common(),
			p4.Mov(f.kind, p4.C(kindWindow)),
			p4.Shr(f.curint, p4.F(std.TsNs), p4.P(2)),
			p4.Mov(f.cap, p4.P(3)),
			p4.Mov(f.k, p4.P(4)),
			p4.Mov(f.delta, p4.F(std.WireLen)),
		)...))
	}

	// bind_none: the miss default; the stage does nothing.
	l.Prog.AddAction(p4.NewAction("bind_none", 0,
		p4.Mov(f.enable, p4.C(0)),
	))
}

// FwdTable is the LPM forwarding table providing connectivity; the
// controller installs routes with Runtime.AddRoute.
const FwdTable = "fwd"

func (l *Library) declareTables() {
	std := l.Std
	l.Prog.AddAction(p4.NewAction("fwd_set_port", 1,
		p4.SetEgress(p4.P(0)),
	))
	l.Prog.AddAction(p4.NewAction("fwd_drop", 0, p4.Drop()))
	l.Prog.AddTable(&p4.TableDef{
		Name:          FwdTable,
		Keys:          []p4.KeySpec{{Field: std.IPv4Dst, Kind: p4.MatchLPM}},
		ActionNames:   []string{"fwd_set_port", "fwd_drop"},
		DefaultAction: "fwd_flood",
		MaxEntries:    l.Opts.FwdEntries,
	})
	l.Prog.AddAction(p4.NewAction("fwd_flood", 0,
		// No route: reflect to port 0 (the simulator's "everything else"
		// port) rather than dropping, so unrouted experiments still see
		// their traffic.
		p4.SetEgress(p4.C(0)),
	))
	// Every kind the program carries is bindable in every stage. The order
	// is part of the emitted program (the BENCH/DETECT artifacts pin it):
	// kind-table order, with bind_none, the miss default, after the six
	// kinds every target carries.
	var bindable []string
	for i := range kinds {
		if kinds[i].emitted(&l.Opts) {
			bindable = append(bindable, kinds[i].action)
		}
		if kinds[i].name == "window" {
			bindable = append(bindable, "bind_none")
		}
	}
	for s := 0; s < l.Opts.Stages; s++ {
		name := fmt.Sprintf("bind%d", s)
		l.BindTables = append(l.BindTables, name)
		l.Prog.AddTable(&p4.TableDef{
			Name: name,
			Keys: []p4.KeySpec{
				{Field: std.EthType, Kind: p4.MatchTernary},
				{Field: std.IPv4Valid, Kind: p4.MatchTernary},
				{Field: std.IPv4Dst, Kind: p4.MatchTernary},
				{Field: std.TCPSyn, Kind: p4.MatchTernary},
			},
			ActionNames:   bindable,
			DefaultAction: "bind_none",
			MaxEntries:    l.Opts.BindEntries,
		})
	}
}

// buildControl assembles the per-packet control flow: each binding stage is
// a table apply followed by the shared update logic, then the echo reply
// hook and reflection.
func (l *Library) buildControl() {
	f := &l.f
	var ctrl []p4.Stmt
	for s := 0; s < l.Opts.Stages; s++ {
		ctrl = append(ctrl, p4.Apply(l.BindTables[s]))
		ctrl = append(ctrl, p4.If(eq(f.enable, 1), l.updateBlock()...))
		ctrl = append(ctrl, p4.Call("stage_reset"))
	}
	ctrl = append(ctrl, p4.If(eq(l.Std.IPv4Valid, 1), p4.Apply(FwdTable)))
	if l.Opts.Echo {
		// The echo reply overrides forwarding: back out the ingress port.
		ctrl = append(ctrl, p4.If(eq(l.Std.EchoValid, 1), p4.Call("echo_reply")))
	}
	l.Prog.Control = ctrl
}

func eq(f p4.FieldID, v uint64) p4.Cond {
	return p4.Cond{A: p4.F(f), Op: p4.CmpEq, B: p4.C(v)}
}

func ne(f p4.FieldID, v uint64) p4.Cond {
	return p4.Cond{A: p4.F(f), Op: p4.CmpNe, B: p4.C(v)}
}

func fgt(a, b p4.FieldID) p4.Cond {
	return p4.Cond{A: p4.F(a), Op: p4.CmpGt, B: p4.F(b)}
}

func flt(a, b p4.FieldID) p4.Cond {
	return p4.Cond{A: p4.F(a), Op: p4.CmpLt, B: p4.F(b)}
}

// updateBlock is the shared per-stage statistics logic.
func (l *Library) updateBlock() []p4.Stmt {
	f := &l.f
	var stmts []p4.Stmt
	stmts = append(stmts,
		p4.If(eq(f.kind, kindFreq),
			p4.If(flt(f.val, f.size), l.freqBlock()...),
		),
		p4.If(eq(f.kind, kindWindow), l.windowBlock()...),
	)
	for _, m := range measures {
		if *m.on(&l.Opts) {
			stmts = append(stmts, p4.If(eq(f.kind, m.kind), m.block(l)...))
		}
	}
	if !l.Opts.NoVariance {
		stmts = append(stmts,
			p4.If(eq(f.doSqrt, 1), l.sqrtBlock()...),
			p4.If(eq(f.doCheck, 1), l.checkBlock()...),
		)
	}
	return stmts
}

// freqBlock updates a frequency distribution: counter increment, incremental
// moments, variance + sd refresh, percentile step.
func (l *Library) freqBlock() []p4.Stmt {
	f := &l.f
	stmts := []p4.Stmt{
		p4.Call("freq_load"),
		p4.If(eq(f.f, 0), p4.Call("freq_incr_n")),
		p4.Call("freq_accum"),
	}
	stmts = append(stmts, l.varStmts()...)
	stmts = append(stmts, l.medianStmts()...)
	if !l.Opts.NoVariance {
		// Arm the imbalance check (k = 0 leaves it off); the threshold
		// is evaluated in the check block, after the fresh σ is stored.
		stmts = append(stmts, p4.If(ne(f.k, 0), p4.Call("freq_arm_check")))
	}
	return stmts
}

// varStmts refreshes m.sqin = N·Xsumsq − Xsum² and requests the sqrt pass.
func (l *Library) varStmts() []p4.Stmt {
	if l.Opts.NoVariance {
		return nil
	}
	if l.Opts.Strict {
		// One-term shift approximations: N·Xsumsq ≈ Xsumsq<<msb(N),
		// Xsum² ≈ Xsum<<msb(Xsum).
		return []p4.Stmt{
			p4.If(ne(l.f.n, 0), l.mulShiftTree(l.f.xsumsq, l.f.n, l.f.nss)...),
			p4.If(ne(l.f.xsum, 0), l.mulShiftTree(l.f.xsum, l.f.xsum, l.f.ss)...),
			p4.If(eq(l.f.n, 0), p4.Call("var_zero_nss")),
			p4.If(eq(l.f.xsum, 0), p4.Call("var_zero_ss")),
			p4.Call("var_finish"),
		}
	}
	return []p4.Stmt{p4.Call("var_mul")}
}

// medianStmts is the Figure 3 percentile logic: seed on first value, account
// the new observation, rebalance by at most one slot.
func (l *Library) medianStmts() []p4.Stmt {
	f := &l.f
	cmp := p4.Call("med_cmp")
	if l.Opts.Strict {
		cmp = p4.Call("med_cmp_strict")
	}
	return []p4.Stmt{
		p4.Call("med_load"),
		p4.If(eq(f.minit, 0),
			p4.Call("med_seed"),
		).WithElse(
			p4.If(flt(f.val, f.med), p4.Call("med_inc_low")),
			p4.If(fgt(f.val, f.med), p4.Call("med_inc_high")),
			p4.Call("med_fmed"),
			cmp,
			p4.If(fgt(f.lhs, f.rhs),
				// marker moves up unless clamped at the top
				p4.If(flt(f.t2, f.size), p4.Call("med_up")),
			).WithElse(
				p4.If(fgt(f.lhs2, f.rhs2),
					p4.If(ne(f.med, 0), p4.Call("med_down")),
				),
			),
		),
	}
}

// windowBlock is the circular time-window logic: accumulate within an
// interval; at a boundary run the anomaly check against the stored
// distribution, then fold the completed interval, overriding the oldest
// counter — the paper's longest dependency chain.
func (l *Library) windowBlock() []p4.Stmt {
	f := &l.f
	// The detection check arms before the fold, against the stored
	// distribution, exactly like core.Window.CheckThenTick. In the default
	// mode it runs once two intervals are stored; in Strict mode N·x is a
	// constant shift that is only correct on a full window.
	checkCond := p4.Cond{A: p4.F(f.n), Op: p4.CmpGe, B: p4.C(2)}
	armAction := "win_arm_check"
	if l.Opts.Strict {
		checkCond = p4.Cond{A: p4.F(f.n), Op: p4.CmpEq, B: p4.F(f.cap)}
		armAction = "win_arm_check_strict"
	}
	boundary := []p4.Stmt{}
	if !l.Opts.NoVariance {
		boundary = append(boundary, p4.If(checkCond, p4.Call(armAction)))
	}
	boundary = append(boundary,
		p4.Call("win_fold"),
		p4.If(p4.Cond{A: p4.F(f.head), Op: p4.CmpEq, B: p4.F(f.cap)},
			p4.Call("win_head_wrap"),
		),
		p4.If(flt(f.n, f.cap),
			p4.Call("win_grow"),
		).WithElse(
			p4.Call("win_evict"),
		),
		p4.Call("win_commit"),
	)
	boundary = append(boundary, l.varStmts()...)
	return []p4.Stmt{
		p4.Call("win_load"),
		p4.If(eq(f.init, 0), p4.Call("win_init")),
		p4.If(p4.Cond{A: p4.F(f.curint), Op: p4.CmpNe, B: p4.F(f.last)},
			boundary...,
		).WithElse(
			p4.Call("win_accum"),
		),
	}
}

// sqrtBlock computes m.sqout = SqrtApprox(m.sqin) via the Figure 2 if-tree
// and stores variance and sd into the distribution's metadata.
func (l *Library) sqrtBlock() []p4.Stmt {
	stmts := l.sqrtTree()
	return append(stmts, p4.Call("sqrt_store"))
}

// checkBlock fires the anomaly digest when the armed comparison holds. For
// windows the operands were computed before the fold by the arm action; for
// frequency-style distributions (dense or flow-table) the threshold uses the σ
// the sqrt block just stored, so it is computed here.
func (l *Library) checkBlock() []p4.Stmt {
	f := &l.f
	notWindow := p4.Cond{A: p4.F(f.kind), Op: p4.CmpNe, B: p4.C(kindWindow)}
	var stmts []p4.Stmt
	if l.Opts.Strict {
		freqThr := []p4.Stmt{p4.Call("freq_thr_strict")}
		freqThr = append(freqThr, p4.If(ne(f.n, 0), l.mulShiftTree(f.fnew, f.n, f.nx)...))
		stmts = append(stmts, p4.IfStmt{Cond: notWindow, Then: freqThr})
	} else {
		stmts = append(stmts, p4.IfStmt{Cond: notWindow, Then: []p4.Stmt{p4.Call("freq_thr")}})
	}
	stmts = append(stmts, p4.If(fgt(f.nx, f.thr), p4.Call("check_alert")))
	return stmts
}
