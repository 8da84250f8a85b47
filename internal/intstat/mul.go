package intstat

// MulShift approximates a·b using only shifts and adds, the technique the
// paper points to (Ding et al., NOMS 2020) for targets that cannot multiply
// two runtime values. Operand b is rounded to the sum of its top `terms`
// powers of two; each term turns into one shift of a plus one add. terms == 1
// keeps the order of magnitude only; terms == 2 bounds the relative error by
// 25%; larger values converge to the exact product.
//
// terms is a compile-time parameter of an emitted program (each term is one
// unrolled shift-and-add stage), and the per-term shift amounts come from the
// MSB if-chain whose leaves shift by constants — which is what the
// exemptions below record.
//
//stat4:datapath
//stat4:exempt:reachable (b) paper concept: the shift-and-add multiplication the paper points to (Ding et al.) for targets that cannot multiply; no emitted program uses it yet
func MulShift(a, b uint64, terms int) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	var sum uint64
	//stat4:exempt:boundedloop terms is a compile-time parameter; each iteration is one unrolled shift-and-add stage
	for i := 0; i < terms && b != 0; i++ {
		e := MSBIfChain(b)
		sum += a << uint(e) //stat4:exempt:shiftconst constant per leaf of the MSB if-chain
		b &^= 1 << uint(e)  //stat4:exempt:shiftconst constant per leaf of the MSB if-chain
	}
	return sum
}

// SquareApprox approximates y² as MulShift(y, y, 2). With two terms the
// result keeps the two leading bits of one operand:
// y = 2^e + r  ⇒  y² ≈ y·2^e + y·2^f where f is the position of r's MSB.
//
//stat4:datapath
//stat4:exempt:reachable (b) paper concept: squaring by the same shift-and-add multiplication; no emitted program uses it yet
func SquareApprox(y uint64) uint64 {
	return MulShift(y, y, 2)
}

// IncSumsq returns the adjustment to Xsumsq when a frequency counter moves
// from x to x+1: (x+1)² − x² = 2x + 1. This is the identity that lets Stat4
// maintain a sum of squares without ever squaring a runtime value.
//
//stat4:datapath
func IncSumsq(x uint64) uint64 { return 2*x + 1 }

// SatSub returns a−b saturating at zero.
//
//stat4:datapath
func SatSub(a, b uint64) uint64 {
	if b >= a {
		return 0
	}
	return a - b
}

// Mask returns the all-ones value of the given bit width (1 ≤ width ≤ 64).
// width is the register cell width, fixed when the program is emitted, so the
// shift below is a constant on the target.
//
//stat4:datapath
func Mask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<width - 1 //stat4:exempt:shiftconst width is the compile-time register cell width
}
