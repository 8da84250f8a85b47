package stat4p4

import (
	"fmt"

	"stat4/internal/p4"
)

// msbTree emits a nested-if binary search on the MSB of src over [lo, hi]
// whose leaf e calls the action leaf_e. At leaf e every shift amount is a
// compile-time constant, which is how the Figure 2 "sequence of ifs"
// sidesteps the no-packet-dependent-shift restriction; the square root, the
// strict multiply and the entropy log2 are all such trees.
func msbTree(src p4.FieldID, lo, hi int, leaf string) p4.Stmt {
	if lo == hi {
		return p4.Call(fmt.Sprintf("%s_%d", leaf, lo))
	}
	mid := (lo + hi + 1) / 2
	return p4.IfStmt{
		Cond: p4.Cond{A: p4.F(src), Op: p4.CmpGe, B: p4.C(1 << uint(mid))},
		Then: []p4.Stmt{msbTree(src, mid, hi, leaf)},
		Else: []p4.Stmt{msbTree(src, lo, mid-1, leaf)},
	}
}

// sqrtTree emits the Figure 2 approximate square root of m.sqin, one leaf
// action per exponent, matching intstat.SqrtApprox bit for bit.
func (l *Library) sqrtTree() []p4.Stmt {
	f := &l.f
	return []p4.Stmt{
		p4.If(eq(f.sqin, 0),
			p4.Call("sqrt_zero"),
		).WithElse(
			msbTree(f.sqin, 0, 63, "sqrt_leaf"),
		),
	}
}

// declareSqrtActions declares the 64 leaf actions plus the zero case.
func (l *Library) declareSqrtActions() {
	f := &l.f
	l.Prog.AddAction(p4.NewAction("sqrt_zero", 0, p4.Mov(f.sqout, p4.C(0))))
	for e := 0; e <= 63; e++ {
		name := fmt.Sprintf("sqrt_leaf_%d", e)
		if e <= 1 {
			// SqrtApprox of any y with MSB at 0 or 1 (y in 1..3) is 1.
			l.Prog.AddAction(p4.NewAction(name, 0, p4.Mov(f.sqout, p4.C(1))))
			continue
		}
		he := e >> 1
		oddBit := uint64(e&1) << uint(e-1)
		ops := []p4.Op{
			// mantissa: clear the MSB.
			p4.Xor(f.t1, p4.F(f.sqin), p4.C(1<<uint(e))),
			// shift the exponent‖mantissa string right by one: the
			// exponent's low bit drops into the mantissa's top slot.
			p4.Shr(f.t1, p4.F(f.t1), p4.C(1)),
		}
		if oddBit != 0 {
			ops = append(ops, p4.Or(f.t1, p4.F(f.t1), p4.C(oddBit)))
		}
		ops = append(ops,
			// keep the top he mantissa bits under the new MSB.
			p4.Shr(f.t1, p4.F(f.t1), p4.C(uint64(e-he))),
			p4.Or(f.sqout, p4.F(f.t1), p4.C(1<<uint(he))),
		)
		l.Prog.AddAction(p4.NewAction(name, 0, ops...))
	}
}

// mulShiftTree emits dst = a << msb(b): the one-term shift approximation of
// a·b used in Strict mode, with constant-shift leaves. The caller guards
// b != 0.
func (l *Library) mulShiftTree(a, b, dst p4.FieldID) []p4.Stmt {
	prefix := fmt.Sprintf("ms_%d_%d", a, dst)
	if !l.leaves[prefix] {
		l.leaves[prefix] = true
		for e := 0; e <= 63; e++ {
			l.Prog.AddAction(p4.NewAction(fmt.Sprintf("%s_%d", prefix, e), 0,
				p4.Shl(dst, p4.F(a), p4.C(uint64(e))),
			))
		}
	}
	return []p4.Stmt{msbTree(b, 0, 63, prefix)}
}
