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
//	[ metadata fields ‖ action-argument window ‖ constant pool ]
//
// Every operand of every micro-op is an index into it. Fields are the
// program's metadata (zeroed per packet, and what Ctx exposes); the argument
// window holds the arguments of the table entry whose action is running
// (copied in on a hit, so a body reads its parameters like any other slot);
// the pool holds each distinct constant once, written at compile time.
//
// The stream holds, in order, one body per table-bindable action (ending in
// opRet), the main control flow (ending in opHalt) and the recirculation pass
// (likewise). A CallStmt has no body of its own: its action is inlined at the
// call site with the constant arguments folded into the pool. IfStmt nesting
// lowers to compare-and-branch and jump ops with strictly forward targets; a
// table apply that hits (or misses into a default action) jumps to the bound
// body and opRet comes back — actions cannot call, so one return register is
// the whole stack, and every pc sequence is bounded by the stream's length.

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
	opJmp   = opBrGe + 1 // pc = dst
	opApply = opJmp + 1  // match aux.tbl; run the hit entry's (or the default) body
	opRet   = opApply + 1
	opHalt  = opRet + 1
)

// uop is one micro-op. dst, a and b are frame slots (dst is the target pc for
// branches and jumps; b is the hash-function index for OpHash); mask is the
// destination field's width mask (with OpHash's constant mask folded in).
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

	// opApply: the table, its key fields' frame slots, and the default
	// action's body and arguments (hasDef false: a miss falls through).
	tbl     *table
	keys    []uint32
	hasDef  bool
	defBody uint32
	defArgs []uint64
}

// lowerer accumulates the stream and the constant pool.
type lowerer struct {
	sw      *Switch
	code    []uop
	pool    []uint64
	poolIdx map[uint64]uint32 // constant → index into pool (dedup)
	bodies  map[string]uint32

	argBase, poolBase uint32 // first frame slot of the argument window / the pool
}

// compile lowers the program and sizes the per-packet scratch. Called once
// from NewSwitch, after registers and tables exist and the program has
// validated; everything the per-packet path needs is resolved here.
func (sw *Switch) compile() {
	prog := sw.prog
	sw.fieldMask = make([]uint64, len(prog.Fields))
	for i, f := range prog.Fields {
		sw.fieldMask[i] = widthMask(f.Width)
	}
	maxParams, maxKeys := 0, 0
	for _, a := range prog.Actions {
		maxParams = max(maxParams, a.NumParams)
	}
	bindable := make(map[string]bool)
	for _, t := range prog.Tables {
		maxKeys = max(maxKeys, len(t.Keys))
		for _, an := range t.ActionNames {
			bindable[an] = true
		}
		if t.DefaultAction != "" {
			bindable[t.DefaultAction] = true
		}
	}

	l := &lowerer{
		sw:       sw,
		poolIdx:  make(map[uint64]uint32),
		bodies:   make(map[string]uint32, len(bindable)),
		argBase:  uint32(len(prog.Fields)),
		poolBase: uint32(len(prog.Fields) + maxParams),
	}
	for _, a := range prog.Actions {
		if bindable[a.Name] {
			// A bindable body reads its parameters from the argument window.
			params := make([]uint32, a.NumParams)
			for i := range params {
				params[i] = l.argBase + uint32(i)
			}
			l.bodies[a.Name] = uint32(len(l.code))
			l.lowerAction(a, params)
			l.code = append(l.code, uop{code: opRet})
		}
	}
	sw.mainPC = uint32(len(l.code))
	l.lowerStmts(prog.Control)
	l.code = append(l.code, uop{code: opHalt})
	sw.recircPC = uint32(len(l.code))
	l.lowerStmts(prog.RecircControl)
	l.code = append(l.code, uop{code: opHalt})

	// Exactly-sized copies: the stream and frame live as long as the switch.
	sw.code = append(make([]uop, 0, len(l.code)), l.code...)
	sw.argBase = l.argBase
	sw.frame = make([]uint64, int(l.poolBase)+len(l.pool))
	copy(sw.frame[l.poolBase:], l.pool)
	sw.scratch = Ctx{fields: sw.frame[:len(prog.Fields):len(prog.Fields)], sw: sw}
	sw.keyScratch = make([]uint64, maxKeys)

	// Tables bind entry actions to their bodies at insert, modify and restore
	// time — the rule-install moment, as on hardware.
	for _, t := range sw.tables {
		t.bodies = l.bodies
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
	return l.poolBase + i
}

// slot resolves an operand to its frame slot; params holds the slot of each
// parameter of the action being lowered (nil outside an action).
func (l *lowerer) slot(r Ref, params []uint32) uint32 {
	switch r.Kind {
	case RefField:
		return uint32(r.Field)
	case RefParam:
		return params[r.Param]
	default:
		return l.constSlot(r.Const)
	}
}

// lowerAction appends one action body with its parameters bound to the given
// frame slots: the argument window for a bindable body, pool constants for a
// call site's folded arguments.
func (l *lowerer) lowerAction(a *Action, params []uint32) {
	sw := l.sw
	for _, op := range a.Ops {
		u := uop{code: op.Code}
		if op.Dst.Kind == RefField {
			u.dst = uint32(op.Dst.Field)
			u.mask = sw.fieldMask[op.Dst.Field]
		}
		switch op.Code {
		case OpMov, OpNot:
			u.a = l.slot(op.A, params)
		case OpRegRead:
			u.a = l.slot(op.A, params)
			u.reg = sw.regs[op.Reg]
		case OpRegWrite:
			u.a = l.slot(op.A, params)
			u.b = l.slot(op.B, params)
			u.reg = sw.regs[op.Reg]
		case OpHash:
			u.a = l.slot(op.A, params)
			u.b = uint32(op.HashID)
			u.mask &= op.B.Const
		case OpDigest:
			u.aux = &uopAux{digestID: op.DigestID, fields: op.Fields}
		case OpSetEgress:
			u.code = OpMov
			u.dst = uint32(sw.std.Egress)
			u.mask = sw.fieldMask[sw.std.Egress]
			u.a = l.slot(op.A, params)
		case OpDrop:
			u.code = OpMov
			u.dst = uint32(sw.std.Drop)
			u.mask = ^uint64(0)
			u.a = l.constSlot(1)
		default: // two-operand ALU ops
			u.a = l.slot(op.A, params)
			u.b = l.slot(op.B, params)
		}
		l.code = append(l.code, u)
	}
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
			x := &uopAux{tbl: t, keys: make([]uint32, len(t.def.Keys))}
			for i, k := range t.def.Keys {
				x.keys[i] = uint32(k.Field)
			}
			if t.def.DefaultAction != "" {
				x.hasDef = true
				x.defBody = l.bodies[t.def.DefaultAction]
				x.defArgs = t.def.DefaultArgs
			}
			l.code = append(l.code, uop{code: opApply, aux: x})
		case CallStmt:
			a, _ := l.sw.prog.action(st.Action)
			params := make([]uint32, len(st.Args))
			for i, v := range st.Args {
				params[i] = l.constSlot(v)
			}
			l.lowerAction(a, params)
		case IfStmt:
			bi := len(l.code)
			br := uop{code: opJmp} // an unknown comparison is never true
			if st.Cond.Op <= CmpGe {
				br = uop{
					code: opBrEq + OpCode(st.Cond.Op),
					a:    l.slot(st.Cond.A, nil),
					b:    l.slot(st.Cond.B, nil),
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

// run drives the micro-op stream for one packet from an entry point (the
// main pass or the recirculation pass) to its opHalt, with the pipeline lock
// held. Each case is work a single pipeline stage can do: an ALU op, a
// register access, a hash-unit invocation, a gateway compare, a table match
// or a digest push. The variable shifts in OpShl/OpShr are the simulator
// modelling the op itself — emitted programs only ever use constant shift
// operands (Program.Validate and stat4-lint both enforce it).
//
//stat4:datapath
//stat4:exempt:boundedloop branch and jump targets are strictly forward and an action body returns to the op after its apply, so the walk is bounded by the emitted program's size
func (sw *Switch) run(pc uint32) {
	f := sw.frame
	code := sw.code
	var ret uint32
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
				copy(f[sw.argBase:], e.Args)
				ret, pc = pc, e.body
			} else if x.hasDef {
				copy(f[sw.argBase:], x.defArgs)
				ret, pc = pc, x.defBody
			}
		case opRet:
			pc = ret
		default: // opHalt
			return
		}
	}
}
