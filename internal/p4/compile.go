package p4

// This file is the compile step and the compiled data plane: NewSwitch lowers
// the validated Program once into a single stream of compact micro-ops over
// one flat frame, so the per-packet path is one dispatch loop that never
// resolves a name, walks the statement tree, switches on an operand kind or
// touches a map. That mirrors a real pipeline, where the compiler fixes the
// stage layout and the driver resolves action and register references at
// rule-install time — per-packet work is dispatch over pre-bound state. It is
// the only interpreter the switch runs. The tree-walking reference semantics
// live in walker_test.go, where differential tests replay the same streams
// through both and demand identical behaviour.
//
// The frame is one []uint64 per switch:
//
//	[ metadata fields ‖ constant pool ]
//
// Every operand of every micro-op is an index into it. Fields are the
// program's metadata (zeroed per packet, and what Ctx exposes); the pool holds
// each distinct constant once — the generic stream's, written at compile time,
// and those of the installed traces, reference-counted so that a replaced
// entry gives its constants back.
//
// The generic stream holds the main control flow (ending in opHalt) and the
// recirculation pass (likewise). A CallStmt is inlined at the call site with
// its constant arguments folded into the pool. IfStmt nesting lowers to
// compare-and-branch and jump ops with strictly forward targets. A table apply
// that hits (or misses into a default action) leaves the generic stream for a
// trace (trace.go): the bound action with its arguments as constants, followed
// by a folded copy of the stream after the apply, which exits back into the
// generic stream further on.

// Micro-op codes continue the OpCode enumeration: an action primitive keeps
// its OpCode in the stream (OpSetEgress and OpDrop lower to OpMov and never
// appear), control flow takes the values after OpHash.
const (
	opBrEq  = OpHash + 1 + OpCode(CmpEq) // if !(a == b) pc = dst; likewise below
	opBrNe  = OpHash + 1 + OpCode(CmpNe)
	opBrLt  = OpHash + 1 + OpCode(CmpLt)
	opBrLe  = OpHash + 1 + OpCode(CmpLe)
	opBrGt  = OpHash + 1 + OpCode(CmpGt)
	opBrGe  = OpHash + 1 + OpCode(CmpGe)
	opJmp   = opBrGe + 1  // pc = dst
	opApply = opJmp + 1   // match aux.tbl; enter the hit entry's (or the default's) trace
	opExit  = opApply + 1 // leave a trace: continue the generic stream at dst
	opHalt  = opExit + 1
)

// uop is one micro-op. dst, a and b are frame slots (dst is the target pc for
// branches, jumps and exits; b is the hash-function index for OpHash); mask is
// the destination field's width mask (with OpHash's constant mask folded in).
// The struct is 40 bytes and TestUopSize holds it under 48: several switch
// instances of a ~10^3-op program are resident at once, and the stream is
// the largest per-switch structure after the registers themselves.
type uop struct {
	code      OpCode
	dst, a, b uint32
	mask      uint64
	reg       *Register // OpRegRead, OpRegWrite
	aux       *uopAux   // OpDigest, opApply
}

// uopAux carries the operands too rare and too wide for the op itself.
type uopAux struct {
	// OpDigest.
	digestID int
	fields   []FieldID

	// opApply: the table, its key fields' frame slots, which of the table's
	// apply sites this is (an entry keeps one trace per site), and the trace
	// a miss runs (nil: a miss falls through).
	tbl  *table
	keys []uint32
	site int
	def  []uop
}

// operand is a lowered operand before it has a frame slot: a field, or a
// constant the pool will hold.
type operand struct {
	v     uint64 // the FieldID, or the constant
	konst bool
	slot  uint32 // a constant of the generic stream: its pool slot (else 0)
}

// top is a micro-op whose operands are not yet frame slots — what lowering
// produces and specialisation rewrites. dst is the destination field, or the
// generic pc a branch or jump targets. For OpHash, b.v is the hash-function
// index.
type top struct {
	code OpCode
	dst  uint32
	a, b operand
	mask uint64
	reg  *Register
	aux  *uopAux
}

// isBranch reports whether c is a compare-and-branch.
func isBranch(c OpCode) bool { return c >= opBrEq && c <= opBrGe }

// hasB reports whether an op of code c reads its b operand as a value.
func hasB(c OpCode) bool {
	switch c {
	case OpMov, OpNot, OpRegRead, OpHash, OpDigest, opJmp, opApply, opExit, opHalt:
		return false
	}
	return true
}

// lowerOp lowers one action primitive with its parameters bound to the given
// operands: constants for a call site's or a table entry's arguments.
func (sw *Switch) lowerOp(op Op, params []operand, t *top) {
	*t = top{code: op.Code}
	if op.Dst.Kind == RefField {
		t.dst = uint32(op.Dst.Field)
		t.mask = sw.fieldMask[op.Dst.Field]
	}
	switch op.Code {
	case OpMov, OpNot:
		t.a = lowerRef(op.A, params)
	case OpRegRead:
		t.a = lowerRef(op.A, params)
		t.reg = sw.regs[op.Reg]
	case OpRegWrite:
		t.a, t.b = lowerRef(op.A, params), lowerRef(op.B, params)
		t.reg = sw.regs[op.Reg]
	case OpHash:
		t.a = lowerRef(op.A, params)
		t.b = operand{v: uint64(op.HashID)}
		t.mask &= op.B.Const
	case OpDigest:
		t.aux = &uopAux{digestID: op.DigestID, fields: op.Fields}
	case OpSetEgress:
		t.code = OpMov
		t.dst = uint32(sw.std.Egress)
		t.mask = sw.fieldMask[sw.std.Egress]
		t.a = lowerRef(op.A, params)
	case OpDrop:
		t.code = OpMov
		t.dst = uint32(sw.std.Drop)
		t.mask = ^uint64(0)
		t.a = operand{v: 1, konst: true}
	default: // two-operand ALU ops
		t.a, t.b = lowerRef(op.A, params), lowerRef(op.B, params)
	}
}

// lowerRef lowers one operand of an action primitive.
func lowerRef(r Ref, params []operand) operand {
	switch r.Kind {
	case RefField:
		return operand{v: uint64(r.Field)}
	case RefParam:
		return params[r.Param]
	default:
		return operand{v: r.Const, konst: true}
	}
}

// lowerAction lowers an action body with its parameters bound to constants.
func (sw *Switch) lowerAction(a *Action, args []uint64) []top {
	params := make([]operand, len(args))
	for i, v := range args {
		params[i] = operand{v: v, konst: true}
	}
	out := make([]top, len(a.Ops))
	for i, op := range a.Ops {
		sw.lowerOp(op, params, &out[i])
	}
	return out
}

// reads reports which of its operands an op reads as values.
func (t *top) reads() (a, b bool) {
	switch {
	case t.code == OpHash:
		return true, false
	case t.code == OpDigest || t.code >= opJmp:
		return false, false
	}
	return true, hasB(t.code)
}

// uop gives the op the frame slots a and b for the operands it reads.
func (t *top) uop(a, b uint32) uop {
	u := uop{code: t.code, dst: t.dst, a: a, b: b, mask: t.mask, reg: t.reg, aux: t.aux}
	if t.code == OpHash {
		u.b = uint32(t.b.v)
	}
	return u
}

// lift turns a generic-stream op back into operand form, reading its pool
// slots as the constants they hold.
func (sw *Switch) lift(u *uop, t *top) {
	nF := uint32(len(sw.prog.Fields))
	opnd := func(s uint32) operand {
		if s < nF {
			return operand{v: uint64(s)}
		}
		return operand{v: sw.frame[s], konst: true, slot: s}
	}
	*t = top{code: u.code, dst: u.dst, mask: u.mask, reg: u.reg, aux: u.aux}
	switch {
	case u.code == OpHash:
		t.a, t.b = opnd(u.a), operand{v: uint64(u.b)}
	case u.code == OpDigest || u.code >= opJmp:
	default:
		t.a = opnd(u.a)
		if hasB(u.code) {
			t.b = opnd(u.b)
		}
	}
}

// lowerer accumulates the generic stream and its constant pool.
type lowerer struct {
	sw      *Switch
	code    []uop
	pool    []uint64
	poolIdx map[uint64]uint32 // constant → index into pool (dedup)
	params  []operand         // a call site's arguments, reused
	t       top               // the op being lowered, reused
}

// compile lowers the program and sizes the per-packet scratch, then installs
// each table default's trace. Called once from NewSwitch, after registers and
// tables exist and the program has validated; everything the per-packet path
// needs is resolved here.
func (sw *Switch) compile() {
	prog := sw.prog
	nF := len(prog.Fields)
	sw.fieldMask = make([]uint64, nF)
	for i, f := range prog.Fields {
		sw.fieldMask[i] = widthMask(f.Width)
	}
	maxKeys := 0
	for _, t := range prog.Tables {
		maxKeys = max(maxKeys, len(t.Keys))
	}

	l := &lowerer{sw: sw, poolIdx: make(map[uint64]uint32)}
	l.lowerStmts(prog.Control)
	l.code = append(l.code, uop{code: opHalt})
	sw.recircPC = uint32(len(l.code))
	l.lowerStmts(prog.RecircControl)
	l.code = append(l.code, uop{code: opHalt})

	// Exactly-sized copies: the stream and frame live as long as the switch.
	sw.code = append(make([]uop, 0, len(l.code)), l.code...)
	sw.frame = make([]uint64, nF+len(l.pool))
	copy(sw.frame[nF:], l.pool)
	sw.poolRefs = make([]uint32, len(l.pool))
	for i := range sw.poolRefs {
		sw.poolRefs[i] = 1 // the generic stream's constants are never given back
	}
	sw.poolIdx, sw.pinned = l.poolIdx, uint32(len(l.pool))
	sw.scratch = Ctx{fields: sw.frame[:nF:nF], sw: sw}
	sw.keyScratch = make([]uint64, maxKeys)
	sw.plan = planFor(sw)

	// Defaults are installed once, like the entries' traces at rule-install
	// time; their constants stay pinned for the switch's life.
	b := newTracer(sw)
	for pc := range sw.code {
		x := sw.code[pc].aux
		if sw.code[pc].code != opApply || x.tbl.def.DefaultAction == "" {
			continue
		}
		def := x.tbl.def
		a, _ := prog.action(def.DefaultAction)
		x.def, _ = b.build(uint32(pc), sw.lowerAction(a, def.DefaultArgs), nil)
	}
}

// constSlot returns the frame slot holding constant v, adding it to the pool
// on first use.
func (l *lowerer) constSlot(v uint64) uint32 {
	i, ok := l.poolIdx[v]
	if !ok {
		i = uint32(len(l.pool))
		l.pool = append(l.pool, v)
		l.poolIdx[v] = i
	}
	return uint32(len(l.sw.prog.Fields)) + i
}

// slot gives an operand its frame slot.
func (l *lowerer) slot(o operand) uint32 {
	if o.konst {
		return l.constSlot(o.v)
	}
	return uint32(o.v)
}

// ref lowers a condition operand, which is a field or a constant.
func (l *lowerer) ref(r Ref) uint32 {
	if r.Kind == RefField {
		return uint32(r.Field)
	}
	return l.constSlot(r.Const)
}

// lowerStmts appends the lowering of a statement list. An IfStmt becomes
//
//	br cond → else            (falls through into then on true)
//	  ...then...
//	jmp → end                 (only when an else branch exists)
//	  ...else...
//	end:
//
// so every target is a pc strictly after the op that names it.
func (l *lowerer) lowerStmts(stmts []Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case ApplyStmt:
			t := l.sw.tables[st.Table]
			x := &uopAux{tbl: t, keys: make([]uint32, len(t.def.Keys)), site: len(t.sites)}
			for i, k := range t.def.Keys {
				x.keys[i] = uint32(k.Field)
			}
			t.sites = append(t.sites, uint32(len(l.code)))
			l.code = append(l.code, uop{code: opApply, aux: x})
		case CallStmt:
			a, _ := l.sw.prog.action(st.Action)
			l.params = l.params[:0]
			for _, v := range st.Args {
				l.params = append(l.params, operand{v: v, konst: true})
			}
			for _, op := range a.Ops {
				t := &l.t
				l.sw.lowerOp(op, l.params, t)
				var a, b uint32
				if ra, rb := t.reads(); ra {
					a = l.slot(t.a)
					if rb {
						b = l.slot(t.b)
					}
				}
				l.code = append(l.code, t.uop(a, b))
			}
		case IfStmt:
			bi := len(l.code)
			br := uop{code: opJmp} // an unknown comparison is never true
			if st.Cond.Op <= CmpGe {
				br = uop{
					code: opBrEq + OpCode(st.Cond.Op),
					a:    l.ref(st.Cond.A),
					b:    l.ref(st.Cond.B),
				}
			}
			l.code = append(l.code, br)
			l.lowerStmts(st.Then)
			if len(st.Else) == 0 {
				l.code[bi].dst = uint32(len(l.code))
			} else {
				ji := len(l.code)
				l.code = append(l.code, uop{code: opJmp})
				l.code[bi].dst = uint32(len(l.code))
				l.lowerStmts(st.Else)
				l.code[ji].dst = uint32(len(l.code))
			}
		}
	}
}

// run drives the micro-op stream for one packet from an entry point of the
// generic stream (the main pass or the recirculation pass) to an opHalt, with
// the pipeline lock held. Each case is work a single pipeline stage can do:
// an ALU op, a register access, a hash-unit invocation, a gateway compare, a
// table match or a digest push. The variable shifts in OpShl/OpShr are the
// simulator modelling the op itself — emitted programs only ever use constant
// shift operands (Program.Validate and stat4-lint both enforce it).
//
//stat4:datapath
//stat4:exempt:boundedloop generic-stream targets are strictly forward; an apply enters a trace whose internal targets are strictly forward and whose every exit lands on a generic pc after that apply, so the walk is bounded by the stream's length plus one trace per apply
func (sw *Switch) run(pc uint32) {
	f := sw.frame
	code := sw.code
	for {
		op := &code[pc]
		pc++
		switch op.code {
		case OpMov:
			f[op.dst] = f[op.a] & op.mask
		case OpAdd:
			f[op.dst] = (f[op.a] + f[op.b]) & op.mask
		case OpSub:
			f[op.dst] = (f[op.a] - f[op.b]) & op.mask
		case OpMul:
			f[op.dst] = (f[op.a] * f[op.b]) & op.mask
		case OpSatAdd:
			a := f[op.a]
			sum := a + f[op.b]
			if sum < a || sum > op.mask {
				sum = op.mask
			}
			f[op.dst] = sum
		case OpSatSub:
			a, b := f[op.a], f[op.b]
			if b >= a {
				f[op.dst] = 0
			} else {
				f[op.dst] = (a - b) & op.mask
			}
		case OpAnd:
			f[op.dst] = f[op.a] & f[op.b] & op.mask
		case OpOr:
			f[op.dst] = (f[op.a] | f[op.b]) & op.mask
		case OpXor:
			f[op.dst] = (f[op.a] ^ f[op.b]) & op.mask
		case OpNot:
			f[op.dst] = ^f[op.a] & op.mask
		case OpShl:
			if amt := f[op.b]; amt >= 64 {
				f[op.dst] = 0
			} else {
				f[op.dst] = f[op.a] << amt & op.mask //stat4:exempt:shiftconst simulates the shift primitive; emitted programs pass constant shift operands
			}
		case OpShr:
			if amt := f[op.b]; amt >= 64 {
				f[op.dst] = 0
			} else {
				f[op.dst] = f[op.a] >> amt & op.mask //stat4:exempt:shiftconst simulates the shift primitive; emitted programs pass constant shift operands
			}
		case OpRegRead:
			cells := op.reg.cells
			if idx := f[op.a]; idx < uint64(len(cells)) {
				f[op.dst] = cells[idx] & op.mask
			} else {
				sw.ctr.RuntimeErrors++
				f[op.dst] = 0
			}
		case OpRegWrite:
			cells := op.reg.cells
			if idx := f[op.a]; idx < uint64(len(cells)) {
				cells[idx] = f[op.b] & op.reg.mask
			} else {
				sw.ctr.RuntimeErrors++
			}
		case OpHash:
			f[op.dst] = HashValue(int(op.b), f[op.a]) & op.mask
		case OpDigest:
			x := op.aux
			//stat4:exempt:allocfree a digest hands its values to the control-plane mailbox; the allocation is the message itself, as in hardware's digest slot
			d := Digest{ID: x.digestID, Values: make([]uint64, len(x.fields))}
			//stat4:exempt:boundedloop a digest's field list is fixed when the program is emitted
			for i, fld := range x.fields {
				d.Values[i] = f[fld]
			}
			sw.sendDigest(d)
		case opBrEq:
			if f[op.a] != f[op.b] {
				pc = op.dst
			}
		case opBrNe:
			if f[op.a] == f[op.b] {
				pc = op.dst
			}
		case opBrLt:
			if f[op.a] >= f[op.b] {
				pc = op.dst
			}
		case opBrLe:
			if f[op.a] > f[op.b] {
				pc = op.dst
			}
		case opBrGt:
			if f[op.a] <= f[op.b] {
				pc = op.dst
			}
		case opBrGe:
			if f[op.a] < f[op.b] {
				pc = op.dst
			}
		case opJmp:
			pc = op.dst
		case opApply:
			x := op.aux
			keys := sw.keyScratch[:len(x.keys)]
			//stat4:exempt:boundedloop a table's key list is fixed when the program is emitted
			for i, k := range x.keys {
				keys[i] = f[k]
			}
			if e := x.tbl.lookup(keys); e != nil {
				code, pc = e.traces[x.site], 0
			} else if x.def != nil {
				code, pc = x.def, 0
			}
		case opExit:
			code, pc = sw.code, op.dst
		default: // opHalt
			return
		}
	}
}
