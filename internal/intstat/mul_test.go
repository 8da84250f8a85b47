package intstat

import (
	"testing"
	"testing/quick"
)

func TestMulShiftExactOnPowersOfTwo(t *testing.T) {
	for e := uint(0); e < 20; e++ {
		if got := MulShift(37, 1<<e, 1); got != 37<<e {
			t.Errorf("MulShift(37, 2^%d, 1) = %d, want %d", e, got, 37<<e)
		}
	}
}

// TestMulShiftErrorBound property: with two terms the approximation keeps the
// top two bits of b, so the result is within [product/2, product] — in fact
// the missing mass is below the second-highest power of two of b, bounding
// the relative error by 25%.
func TestMulShiftErrorBound(t *testing.T) {
	f := func(a, b uint32) bool {
		exact := uint64(a) * uint64(b)
		got := MulShift(uint64(a), uint64(b), 2)
		if exact == 0 {
			return got == 0
		}
		return got <= exact && 4*(exact-got) <= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestMulShiftConverges property: with 64 terms the approximation is exact.
func TestMulShiftConverges(t *testing.T) {
	f := func(a, b uint32) bool {
		return MulShift(uint64(a), uint64(b), 64) == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestSquareApprox(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0},
		{1, 1},
		{2, 4},
		{3, 3*2 + 3},        // 2^1 + 2^0 terms: 3<<1 + 3<<0 = 9, exact
		{10, 10<<3 + 10<<1}, // 100 exact: 10 = 8+2
		{100, 100<<6 + 100<<5},
	}
	for _, c := range cases {
		if got := SquareApprox(c.in); got != c.want {
			t.Errorf("SquareApprox(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestIncSumsq property: maintaining Xsumsq with the 2x+1 identity matches
// recomputing the sum of squares from scratch.
func TestIncSumsqIdentity(t *testing.T) {
	f := func(x uint32) bool {
		xx := uint64(x)
		return xx*xx+IncSumsq(xx) == (xx+1)*(xx+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestSatSub(t *testing.T) {
	if got := SatSub(5, 3); got != 2 {
		t.Errorf("SatSub(5,3) = %d", got)
	}
	if got := SatSub(3, 5); got != 0 {
		t.Errorf("SatSub(3,5) = %d, want 0", got)
	}
	if got := SatSub(3, 3); got != 0 {
		t.Errorf("SatSub(3,3) = %d, want 0", got)
	}
}

func TestMask(t *testing.T) {
	if Mask(8) != 255 || Mask(1) != 1 || Mask(64) != ^uint64(0) || Mask(65) != ^uint64(0) {
		t.Fatal("Mask wrong")
	}
}
