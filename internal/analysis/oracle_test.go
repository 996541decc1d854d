package analysis

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"acstab/internal/linalg"
	"acstab/internal/mna"
	"acstab/internal/sparse"
)

// The dense oracle: every frequency point stamped into a linalg.CMatrix
// and solved with the dense partial-pivoting CFactor. It shares nothing
// with the sparse engine but the stamping code, so agreement at 1e-9
// scale-relative checks the engine's pivoting, refill, re-pivot and
// diagonal-kernel paths independently.

// oracleTol is the scale-relative agreement the sparse engine must reach
// against the dense oracle on well-conditioned circuits.
const oracleTol = 1e-9

// denseAC solves the circuit's own AC excitation at every frequency,
// returning the MNA solution vectors.
func denseAC(t *testing.T, sys *mna.System, freqs []float64, op *mna.OpPoint) [][]complex128 {
	t.Helper()
	n := sys.NumUnknowns()
	sol := make([][]complex128, len(freqs))
	for k, f := range freqs {
		m := linalg.NewCMatrix(n)
		b := make([]complex128, n)
		sys.StampAC(m, b, 2*math.Pi*f, op)
		lu, err := linalg.CFactor(m)
		if err != nil {
			t.Fatalf("dense oracle at %g Hz: %v", f, err)
		}
		if sol[k], err = lu.Solve(b); err != nil {
			t.Fatalf("dense oracle at %g Hz: %v", f, err)
		}
	}
	return sol
}

// denseZ returns the driving-point impedances Z[i][k] = (A⁻¹)_{idx,idx} at
// every frequency, the shape ImpedanceMatrixColumns produces.
func denseZ(t *testing.T, sys *mna.System, freqs []float64, op *mna.OpPoint, idx []int) [][]complex128 {
	t.Helper()
	n := sys.NumUnknowns()
	z := make([][]complex128, len(idx))
	for i := range z {
		z[i] = make([]complex128, len(freqs))
	}
	for k, f := range freqs {
		m := linalg.NewCMatrix(n)
		sys.StampAC(m, nil, 2*math.Pi*f, op)
		lu, err := linalg.CFactor(m)
		if err != nil {
			t.Fatalf("dense oracle at %g Hz: %v", f, err)
		}
		for i, node := range idx {
			b := make([]complex128, n)
			b[node] = 1
			x, err := lu.Solve(b)
			if err != nil {
				t.Fatalf("dense oracle at %g Hz: %v", f, err)
			}
			z[i][k] = x[node]
		}
	}
	return z
}

// checkSolutions compares AC solution vectors against the oracle at each
// frequency, every unknown relative to the largest oracle component at
// that frequency (which keeps the check meaningful where a deep-ladder
// node underflows).
func checkSolutions(t *testing.T, what string, freqs []float64, want, got [][]complex128, tol float64) {
	t.Helper()
	for k := range freqs {
		scale := 0.0
		for _, v := range want[k] {
			scale = math.Max(scale, cmplx.Abs(v))
		}
		if scale == 0 {
			scale = 1
		}
		for i := range want[k] {
			if d := cmplx.Abs(want[k][i] - got[k][i]); d > tol*scale {
				t.Fatalf("%s: f=%g Hz unknown %d: differs from the dense oracle by %g (scale %g)",
					what, freqs[k], i, d, scale)
			}
		}
	}
}

// checkImpedances compares Z[i][k] against the oracle, each entry relative
// to its own magnitude (floored at 1e-12 Ω).
func checkImpedances(t *testing.T, what string, freqs []float64, want, got [][]complex128) {
	t.Helper()
	for i := range want {
		for k := range freqs {
			mag := math.Max(cmplx.Abs(want[i][k]), 1e-12)
			if d := cmplx.Abs(want[i][k] - got[i][k]); d > oracleTol*mag {
				t.Fatalf("%s: node %d f=%g Hz: |dz| = %g vs |z| = %g", what, i, freqs[k], d, mag)
			}
		}
	}
}

// doctoredSymbolic builds the doctored pivot-order rig on a circuit with
// the fallbackIslandCircuit island: a symbolic analysis from values that
// pivot column zq on the (zp, zq) entry. On fallbackIslandCircuit that
// entry is a ~1e-30 F capacitor, so every Refactor under the order hits
// the collapsed-pivot guard; on compileMarginalIsland the pivot is bad
// but not collapsed, so the refactor solves breach the residual threshold
// instead.
func doctoredSymbolic(t *testing.T, s *Sim, op *mna.OpPoint, omega0 float64) (*sparse.Pattern, *sparse.Symbolic) {
	t.Helper()
	sys := s.Sys
	rec := sparse.NewRecorder(sys.NumUnknowns())
	sys.StampAC(rec, nil, omega0, op)
	pat := rec.Compile()
	v := pat.NewVals()
	v.Begin()
	sys.StampAC(v, nil, omega0, op)
	if v.Drift() {
		t.Fatal("non-deterministic stamp")
	}
	pIdx, ok := sys.NodeOf("zp")
	if !ok {
		t.Fatal("no zp node")
	}
	qIdx, ok := sys.NodeOf("zq")
	if !ok {
		t.Fatal("no zq node")
	}
	slot := pat.SlotOf(pIdx, qIdx)
	if slot < 0 {
		t.Fatalf("no (zp, zq) entry in the pattern")
	}
	doctored := append([]complex128(nil), v.Values()...)
	doctored[slot] = 1e6 // analyze-time pivot bait, tiny in the real matrix
	sym, err := pat.Analyze(doctored)
	if err != nil {
		t.Fatal(err)
	}
	return pat, sym
}

// driftSymbolic records a pattern and symbolic analysis from the drift
// ladder with its extra element, which a sweep of the plain ladder then
// finds structurally stale at its first stamped point.
func driftSymbolic(t *testing.T, omega0 float64) (*sparse.Pattern, *sparse.Symbolic) {
	t.Helper()
	other := compile(t, driftLadder(true))
	op := mustOP(t, other)
	rec := sparse.NewRecorder(other.Sys.NumUnknowns())
	other.Sys.StampAC(rec, nil, omega0, op)
	pat := rec.Compile()
	v := pat.NewVals()
	v.Begin()
	other.Sys.StampAC(v, nil, omega0, op)
	sym, err := pat.Analyze(v.Values())
	if err != nil {
		t.Fatal(err)
	}
	return pat, sym
}

// TestACRepivotFallbackOracle: under the doctored pivot order every
// frequency of AC and ImpedanceMatrixColumns collapses in Refactor and is
// re-pivoted on the values already stamped into the CSR. Each point must
// count as a refactor fallback and still agree with the dense oracle.
func TestACRepivotFallbackOracle(t *testing.T) {
	freqs := sweepFreqs(12)
	s := compile(t, fallbackIslandCircuit(8))
	op := mustOP(t, s)
	pat, sym := doctoredSymbolic(t, s, op, 2*math.Pi*freqs[0])

	installSymbolic(s, pat, sym)
	falls0 := mACRefactorFallbacks.Value()
	res, err := s.AC(context.Background(), freqs, op)
	if err != nil {
		t.Fatal(err)
	}
	if d := mACRefactorFallbacks.Value() - falls0; d != int64(len(freqs)) {
		t.Errorf("AC refactor fallbacks delta = %d, want %d", d, len(freqs))
	}
	checkSolutions(t, "AC re-pivot", freqs, denseAC(t, s.Sys, freqs, op), res.Sol, oracleTol)

	installSymbolic(s, pat, sym)
	idx := allNodeIdx(s)
	falls0 = mACRefactorFallbacks.Value()
	z, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	if d := mACRefactorFallbacks.Value() - falls0; d != int64(len(freqs)) {
		t.Errorf("impedance refactor fallbacks delta = %d, want %d", d, len(freqs))
	}
	checkImpedances(t, "impedance re-pivot", freqs, denseZ(t, s.Sys, freqs, op, idx), z)
}

// TestACPatternDriftOracle: a sweep that starts under a pattern recorded
// from a different stamp stream trips the drift checksum once, drops the
// Sim-shared cache, and runs out the sweep on per-point patterns — every
// answer still matching the dense oracle — after which the next sweep
// rebuilds a warm analysis of the right circuit.
func TestACPatternDriftOracle(t *testing.T) {
	freqs := sweepFreqs(10)
	s := compile(t, driftLadder(false))
	op := mustOP(t, s)
	pat, sym := driftSymbolic(t, 2*math.Pi*freqs[0])

	installSymbolic(s, pat, sym)
	drift0 := mACPatternDrift.Value()
	res, err := s.AC(context.Background(), freqs, op)
	if err != nil {
		t.Fatal(err)
	}
	if d := mACPatternDrift.Value() - drift0; d != 1 {
		t.Errorf("AC pattern drift delta = %d, want 1", d)
	}
	if _, warm := s.ACChecksum(); warm {
		t.Error("drift left the stale analysis cached")
	}
	checkSolutions(t, "AC drift", freqs, denseAC(t, s.Sys, freqs, op), res.Sol, oracleTol)

	installSymbolic(s, pat, sym)
	idx := allNodeIdx(s)
	z, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	want := denseZ(t, s.Sys, freqs, op, idx)
	checkImpedances(t, "impedance drift", freqs, want, z)

	// The invalidated cache rebuilds from the real stamp stream.
	drift0 = mACPatternDrift.Value()
	if z, err = s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx); err != nil {
		t.Fatal(err)
	}
	if d := mACPatternDrift.Value() - drift0; d != 0 {
		t.Errorf("rebuilt analysis drifted %d times, want 0", d)
	}
	if _, warm := s.ACChecksum(); !warm {
		t.Error("sweep after drift did not rebuild the analysis")
	}
	checkImpedances(t, "impedance after rebuild", freqs, want, z)
}

// TestACResponseOracle: a fixed excitation vector rides the same engine as
// AC and matches the dense solve of the same right-hand side.
func TestACResponseOracle(t *testing.T) {
	s := compile(t, driftLadder(false))
	op := mustOP(t, s)
	freqs := sweepFreqs(9)
	n := s.Sys.NumUnknowns()
	rhs := make([]complex128, n)
	rhs[3], rhs[7] = 1, -1
	got, err := s.ACResponse(context.Background(), freqs, op, rhs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]complex128, len(freqs))
	for k, f := range freqs {
		m := linalg.NewCMatrix(n)
		s.Sys.StampAC(m, nil, 2*math.Pi*f, op)
		if want[k], err = linalg.CSolveDense(m, rhs); err != nil {
			t.Fatal(err)
		}
	}
	checkSolutions(t, "ACResponse", freqs, want, got, oracleTol)
	if _, err := s.ACResponse(context.Background(), freqs, op, rhs[:2]); err == nil {
		t.Error("short excitation vector accepted")
	}
}
