package stab

// Adaptive grid refinement: the stability plot only needs dense
// ω-resolution near resonant peaks — P(ω) is flat (|P| well below the
// real-pole bound) away from complex pole/zero pairs — so a sweep can
// start from a coarse log grid and bisect only the intervals the stencil
// signal marks as interesting. RefinePlan is the per-round decision: given
// one node's samples so far, which log-midpoints to solve next.
//
// The decision is a pure function of one node's own samples and the
// options. That property is load-bearing: a sharded all-nodes run splits
// nodes across workers, and per-node refinement guarantees each node's
// final grid — and therefore the merged report — is byte-identical no
// matter how the nodes were partitioned or batched.

import (
	"math"
)

// refineSplit is the interval-width factor above the target spacing at
// which an interval is still worth bisecting: splitting only when
// width > refineSplit*du leaves final spacings in (du/2·refineSplit,
// refineSplit·du], i.e. centered on the requested resolution instead of
// strictly below it.
const refineSplit = 1.5

// RefineOptions configures one refinement round.
type RefineOptions struct {
	// Threshold is the |P| level that marks an interval as resonant.
	// Intervals whose endpoints both stay below it are never refined.
	Threshold float64
	// WideDU is the target log-frequency spacing (natural log) for
	// threshold-selected intervals — dense enough to locate every
	// extremum, coarser than the peak resolution.
	WideDU float64
	// PeakDU is the target spacing for intervals adjacent to a detected
	// extremum, where the parabolic peak fit needs full resolution.
	PeakDU float64
}

// RefinePlan computes the next round of sample points for one node's
// adaptive sweep: the log-midpoints of every interval that is (a) above
// the stability-plot threshold and wider than the wide target, or (b)
// adjacent to a current extremum of P and wider than the peak target.
// freqs must be ascending with positive entries; u = ln(freqs) and
// ln = LogMag(|T|) at those frequencies, element for element. Callers
// carry the log-domain samples across rounds: a multi-round adaptive
// sweep grows each node's grid by a handful of points per round, so this
// decision is O(n) arithmetic with no transcendentals except one exp per
// emitted midpoint. Returns the wanted frequencies, ascending and
// distinct from the inputs, and their log-frequencies (wantU[i] is the
// exact midpoint value, not Log(wantF[i])); an empty result means the
// grid has converged. Fewer than 3 samples can't support the stencil and
// return nil.
//
// The plan always differentiates with the 3-point stencil, whatever the
// grid: its first round runs on the uniform coarse grid, where plot
// would take the 5-point one, and the refined grids depend on it.
func RefinePlan(freqs, u, ln []float64, opt RefineOptions) (wantF, wantU []float64) {
	n := len(freqs)
	if n < 3 {
		return nil, nil
	}
	p := make([]float64, n)
	stencil3(p, u, ln)

	split := make([]bool, n-1)
	hot := func(i int) bool { return math.Abs(p[i]) >= opt.Threshold }
	for i := 0; i < n-1; i++ {
		if (hot(i) || hot(i+1)) && u[i+1]-u[i] > refineSplit*opt.WideDU {
			split[i] = true
		}
	}
	// Extremum-adjacent intervals refine all the way to the peak target:
	// those two intervals carry the three samples the parabolic peak fit
	// reads, so their spacing bounds the ωn/ζ accuracy. The extrema are
	// Analyze's, restricted to hot samples.
	extrema(p, func(i int, _ bool) {
		if !hot(i) {
			return
		}
		if i > 0 && u[i]-u[i-1] > refineSplit*opt.PeakDU {
			split[i-1] = true
		}
		if i < n-1 && u[i+1]-u[i] > refineSplit*opt.PeakDU {
			split[i] = true
		}
	})
	for i, s := range split {
		if !s {
			continue
		}
		midU := (u[i] + u[i+1]) / 2
		mid := math.Exp(midU)
		// Guard against degenerate intervals where the midpoint rounds
		// onto an endpoint; duMin normally keeps spacings far above this.
		if mid > freqs[i] && mid < freqs[i+1] {
			wantF = append(wantF, mid)
			wantU = append(wantU, midU)
		}
	}
	return wantF, wantU
}
