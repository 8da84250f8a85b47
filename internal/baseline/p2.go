package baseline

// P2Quantile is the P² (piecewise-parabolic) online quantile estimator of
// Jain & Chlamtac (1985): five markers, constant memory, floating-point
// arithmetic. It is the classical software answer to "track a quantile
// online" and serves as the CPU-side baseline the paper's related work
// points at (sketch-based quantile estimation à la QPipe): everything Stat4's
// one-step median marker cannot use — division, floats, data-dependent
// marker jumps — is allowed here.
type P2Quantile struct {
	p     float64
	n     int
	init  [5]float64
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based)
	want  [5]float64 // desired positions
	dWant [5]float64 // desired-position increments
}

// NewP2Quantile returns an estimator for the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) *P2Quantile {
	e := &P2Quantile{p: p}
	e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.dWant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add folds one observation.
func (e *P2Quantile) Add(x float64) {
	if e.n < 5 {
		e.init[e.n] = x
		e.n++
		if e.n == 5 {
			// Sort the first five observations into the markers.
			s := e.init
			for i := 1; i < 5; i++ {
				for j := i; j > 0 && s[j-1] > s[j]; j-- {
					s[j-1], s[j] = s[j], s[j-1]
				}
			}
			for i := 0; i < 5; i++ {
				e.q[i] = s[i]
				e.pos[i] = float64(i + 1)
			}
		}
		return
	}
	e.n++

	// Locate the cell containing x and clamp the extreme markers.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.want[i] += e.dWant[i]
	}

	// Adjust the three interior markers with parabolic (or linear) moves.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			qn := e.parabolic(i, sign)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it returns the midpoint of what has been seen.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		s := e.init
		for i := 1; i < e.n; i++ {
			for j := i; j > 0 && s[j-1] > s[j]; j-- {
				s[j-1], s[j] = s[j], s[j-1]
			}
		}
		return s[(e.n-1)/2]
	}
	return e.q[2]
}
