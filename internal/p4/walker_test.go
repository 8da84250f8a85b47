package p4

import (
	"time"

	"stat4/internal/packet"
)

// This file is the tree-walking interpreter: the reference semantics the
// compiled micro-op stream (compile.go) is differentially tested against. It
// resolves tables and actions by name per packet and walks the program's
// statement tree, so it shares nothing with the lowering but the parser, the
// tables, the registers and the digest mailbox. Only tests link it.

// treeCtx is the walker's per-packet context: the switch's field view plus
// the parameters of the action running, which the compiled plan folds into
// each entry's trace instead.
type treeCtx struct {
	*Ctx
	args []uint64
}

// processFrameTree is ProcessFrame with the tree walker in place of the
// micro-op stream: admit, parse, extract, the main pass, the one
// recirculation pass, drop, counters and deparse, in processFrame's order.
func (sw *Switch) processFrameTree(tsNs uint64, inPort uint16, data []byte) []FrameOut {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.admit() {
		start := time.Now()
		defer func() { sw.obs.PacketCost(uint64(time.Since(start))) }()
	}
	pkt := &sw.pktScratch
	if err := packet.ParseInto(pkt, data); err != nil {
		sw.ctr.ParseErrors++
		sw.ctr.Dropped++
		return nil
	}
	ctx := &treeCtx{Ctx: &sw.scratch}
	fields := ctx.fields
	clear(fields)
	sw.std.extract(ctx.Ctx, tsNs, inPort, pkt)
	sw.execStmts(ctx, sw.prog.Control)
	if sw.prog.hasRecirc && fields[sw.prog.RecircField] != 0 {
		fields[sw.prog.RecircField] = 0
		sw.ctr.Recirculated++
		sw.execStmts(ctx, sw.prog.RecircControl)
	}
	if fields[sw.std.Drop] != 0 {
		sw.ctr.Dropped++
		return nil
	}
	sw.ctr.PktsOut++
	frame := sw.deparser.Deparse(ctx.Ctx, pkt, sw.deparseBuf[:0])
	sw.deparseBuf = frame[:0]
	sw.outScratch[0] = FrameOut{Port: uint16(fields[sw.std.Egress]), Data: frame}
	return sw.outScratch[:]
}

// execStmts interprets a statement list.
func (sw *Switch) execStmts(ctx *treeCtx, stmts []Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case ApplyStmt:
			t := sw.tables[st.Table]
			keys := sw.keyScratch[:len(t.def.Keys)]
			for i, k := range t.def.Keys {
				keys[i] = ctx.fields[k.Field]
			}
			e := t.lookup(keys)
			if e != nil {
				a, _ := sw.prog.action(e.Action)
				sw.execAction(ctx, a, e.Args)
			} else if t.def.DefaultAction != "" {
				a, _ := sw.prog.action(t.def.DefaultAction)
				sw.execAction(ctx, a, t.def.DefaultArgs)
			}
		case CallStmt:
			a, _ := sw.prog.action(st.Action)
			sw.execAction(ctx, a, st.Args)
		case IfStmt:
			if st.Cond.eval(sw.resolve(ctx, st.Cond.A), sw.resolve(ctx, st.Cond.B)) {
				sw.execStmts(ctx, st.Then)
			} else {
				sw.execStmts(ctx, st.Else)
			}
		}
	}
}

// resolve reads an operand: a constant, a metadata field, or an action
// parameter.
func (sw *Switch) resolve(ctx *treeCtx, r Ref) uint64 {
	switch r.Kind {
	case RefConst:
		return r.Const
	case RefField:
		return ctx.fields[r.Field]
	case RefParam:
		return ctx.args[r.Param]
	default:
		return 0
	}
}

// execAction runs one action body with the entry's arguments bound as
// parameters.
func (sw *Switch) execAction(ctx *treeCtx, a *Action, args []uint64) {
	saved := ctx.args
	ctx.args = args
	for _, op := range a.Ops {
		sw.execOp(ctx, op)
	}
	ctx.args = saved
}

// eval evaluates a condition on resolved operand values; an unknown
// comparison is never true.
func (c Cond) eval(a, b uint64) bool {
	switch c.Op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	default:
		return false
	}
}

// read is the walker's register read; ok is false out of bounds.
func (r *Register) read(idx uint64) (v uint64, ok bool) {
	if idx >= uint64(len(r.cells)) {
		return 0, false
	}
	return r.cells[idx], true
}

// write is the walker's register write, masked to the cell width; ok is
// false out of bounds.
func (r *Register) write(idx, v uint64) bool {
	if idx >= uint64(len(r.cells)) {
		return false
	}
	r.cells[idx] = v & r.mask
	return true
}

// setField writes a metadata field masked to its declared width.
func (sw *Switch) setField(ctx *treeCtx, id FieldID, v uint64) {
	ctx.fields[id] = v & sw.fieldMask[id]
}

// execOp interprets one primitive.
func (sw *Switch) execOp(ctx *treeCtx, op Op) {
	switch op.Code {
	case OpMov:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A))
	case OpAdd:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)+sw.resolve(ctx, op.B))
	case OpSub:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)-sw.resolve(ctx, op.B))
	case OpMul:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)*sw.resolve(ctx, op.B))
	case OpSatAdd:
		a, b := sw.resolve(ctx, op.A), sw.resolve(ctx, op.B)
		max := sw.fieldMask[op.Dst.Field]
		sum := a + b
		if sum < a || sum > max {
			sum = max
		}
		ctx.fields[op.Dst.Field] = sum
	case OpSatSub:
		a, b := sw.resolve(ctx, op.A), sw.resolve(ctx, op.B)
		if b >= a {
			sw.setField(ctx, op.Dst.Field, 0)
		} else {
			sw.setField(ctx, op.Dst.Field, a-b)
		}
	case OpAnd:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)&sw.resolve(ctx, op.B))
	case OpOr:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)|sw.resolve(ctx, op.B))
	case OpXor:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)^sw.resolve(ctx, op.B))
	case OpNot:
		sw.setField(ctx, op.Dst.Field, ^sw.resolve(ctx, op.A))
	case OpShl:
		amt := sw.resolve(ctx, op.B)
		if amt >= 64 {
			sw.setField(ctx, op.Dst.Field, 0)
		} else {
			sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)<<amt)
		}
	case OpShr:
		amt := sw.resolve(ctx, op.B)
		if amt >= 64 {
			sw.setField(ctx, op.Dst.Field, 0)
		} else {
			sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)>>amt)
		}
	case OpRegRead:
		r := sw.regs[op.Reg]
		v, ok := r.read(sw.resolve(ctx, op.A))
		if !ok {
			sw.ctr.RuntimeErrors++
		}
		sw.setField(ctx, op.Dst.Field, v)
	case OpRegWrite:
		r := sw.regs[op.Reg]
		if !r.write(sw.resolve(ctx, op.A), sw.resolve(ctx, op.B)) {
			sw.ctr.RuntimeErrors++
		}
	case OpHash:
		sw.setField(ctx, op.Dst.Field, HashValue(op.HashID, sw.resolve(ctx, op.A))&op.B.Const)
	case OpDigest:
		d := Digest{ID: op.DigestID, Values: make([]uint64, len(op.Fields))}
		for i, f := range op.Fields {
			d.Values[i] = ctx.fields[f]
		}
		sw.sendDigest(d)
	case OpSetEgress:
		ctx.fields[sw.std.Egress] = sw.resolve(ctx, op.A) & sw.fieldMask[sw.std.Egress]
	case OpDrop:
		ctx.fields[sw.std.Drop] = 1
	}
}
