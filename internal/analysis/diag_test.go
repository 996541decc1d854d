package analysis

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"acstab/internal/netlist"
	"acstab/internal/obs"
	"acstab/internal/sparse"
)

// allNodeIdx returns every node unknown index of the system.
func allNodeIdx(s *Sim) []int {
	idx := make([]int, s.Sys.NumNodes())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestImpedanceDiagSweepProperty: on randomized RC/RLC ladders the
// reach-restricted diagonal kernel, the full shared-factorization sweep,
// and the dense oracle must agree on every Z_kk to 1e-9 scale-relative
// across a multi-decade sweep; the kernel counters must show the diag path
// actually ran with zero fallbacks.
func TestImpedanceDiagSweepProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	freqs := sweepFreqs(30)
	for trial := 0; trial < 4; trial++ {
		stages := 10 + rng.Intn(30)
		s := compile(t, randomLadder(rng, stages))
		op := mustOP(t, s)
		idx := allNodeIdx(s)

		zd := denseZ(t, s.Sys, freqs, op, idx)
		zf, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		solves0, falls0 := mACDiagSolves.Value(), mACDiagFallbacks.Value()
		zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		if d := mACDiagSolves.Value() - solves0; d != int64(len(freqs)) {
			t.Errorf("trial %d: diag solves delta = %d, want %d", trial, d, len(freqs))
		}
		if d := mACDiagFallbacks.Value() - falls0; d != 0 {
			t.Errorf("trial %d: diag fallbacks delta = %d, want 0", trial, d)
		}
		checkImpedances(t, fmt.Sprintf("trial %d sparse-full", trial), freqs, zd, zf)
		checkImpedances(t, fmt.Sprintf("trial %d sparse-diag", trial), freqs, zd, zg)
	}
}

// fallbackIslandCircuit builds a ladder plus a two-node island (zq, zp)
// tied together by a structurally present but numerically negligible
// capacitor. The island registers first so column zq is eliminated while
// row zp is still live — the shape a doctored pivot order needs.
func fallbackIslandCircuit(stages int) *netlist.Circuit {
	c := netlist.NewCircuit("fallback island")
	c.AddR("RQ", "zq", "0", 1e3)
	c.AddR("RP", "zp", "0", 1e3)
	c.AddC("CP", "zp", "0", 1e-12)
	c.AddC("CZ", "zp", "zq", 1e-30)
	c.AddV("V1", "s0", "0", netlist.SourceSpec{ACMag: 1})
	prev := "s0"
	for i := 1; i <= stages; i++ {
		cur := fmt.Sprintf("s%d", i)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, 1e3)
		c.AddC(fmt.Sprintf("C%d", i), cur, "0", 1e-12)
		prev = cur
	}
	return c
}

// installSymbolic swaps a prebuilt pattern+symbolic into the Sim-shared AC
// cache, the hook the forcing tests use to start a sweep under a doctored
// or stale analysis.
func installSymbolic(s *Sim, pat *sparse.Pattern, sym *sparse.Symbolic) {
	sh := s.acShared()
	sh.mu.Lock()
	sh.pat, sh.sym = pat, sym
	sh.diagSym, sh.diagPlans = nil, nil
	sh.mu.Unlock()
}

// TestImpedanceDiagRefactorFallback forces every frequency of a diag sweep
// onto the refactor-fallback path: the symbolic analysis is built from
// doctored values that pivot column zq on the (zp, zq) entry, which in the
// real matrix is a ~1e-30 capacitor — each Refactor hits the collapsed-
// pivot guard, is re-pivoted on its stamped values, and the diag sweep
// must run the full per-node substitutions for that point. Results must
// still match the dense oracle to 1e-9.
func TestImpedanceDiagRefactorFallback(t *testing.T) {
	freqs := sweepFreqs(12)
	s := compile(t, fallbackIslandCircuit(8))
	op := mustOP(t, s)
	pat, sym := doctoredSymbolic(t, s, op, 2*math.Pi*freqs[0])
	installSymbolic(s, pat, sym)

	idx := allNodeIdx(s)
	solves0, falls0 := mACDiagSolves.Value(), mACDiagFallbacks.Value()
	zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	if d := mACDiagFallbacks.Value() - falls0; d != int64(len(freqs)) {
		t.Errorf("diag fallbacks delta = %d, want %d (every frequency collapsed)", d, len(freqs))
	}
	if d := mACDiagSolves.Value() - solves0; d != 0 {
		t.Errorf("diag solves delta = %d, want 0 under forced fallback", d)
	}
	checkImpedances(t, "fallback path", freqs, denseZ(t, s.Sys, freqs, op, idx), zg)
}

// driftLadder builds the deterministic ladder the pattern-drift test uses;
// withExtra adds one more resistor between existing nodes, which changes
// the stamp stream but not the node set.
func driftLadder(withExtra bool) *netlist.Circuit {
	c := netlist.NewCircuit("drift ladder")
	c.AddV("V1", "s0", "0", netlist.SourceSpec{ACMag: 1})
	prev := "s0"
	for i := 1; i <= 10; i++ {
		cur := fmt.Sprintf("s%d", i)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, 1e3)
		c.AddC(fmt.Sprintf("C%d", i), cur, "0", 1e-12)
		prev = cur
	}
	if withExtra {
		c.AddR("RX", "s2", "s5", 1e4)
	}
	return c
}

// TestImpedanceDiagPatternDrift forces the pattern-drift path: the sweep
// starts under a symbolic analysis recorded from a different stamp stream
// (same node set, one extra element), so the first stamped frequency
// trips the drift checksum, invalidates the cache, and the whole sweep
// runs on per-point patterns — every point a diag fallback, results still
// agreeing with the dense oracle.
func TestImpedanceDiagPatternDrift(t *testing.T) {
	freqs := sweepFreqs(10)
	s := compile(t, driftLadder(false))
	op := mustOP(t, s)
	if n := compile(t, driftLadder(true)).Sys.NumUnknowns(); n != s.Sys.NumUnknowns() {
		t.Fatal("drift fixture changed the unknown count")
	}
	pat, sym := driftSymbolic(t, 2*math.Pi*freqs[0])
	installSymbolic(s, pat, sym)

	idx := allNodeIdx(s)
	drift0, falls0 := mACPatternDrift.Value(), mACDiagFallbacks.Value()
	zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	if d := mACPatternDrift.Value() - drift0; d != 1 {
		t.Errorf("pattern drift delta = %d, want 1", d)
	}
	if d := mACDiagFallbacks.Value() - falls0; d != int64(len(freqs)) {
		t.Errorf("diag fallbacks delta = %d, want %d (drift runs out the sweep on per-point patterns)", d, len(freqs))
	}
	checkImpedances(t, "drift path", freqs, denseZ(t, s.Sys, freqs, op, idx), zg)
}

// TestImpedanceDiagSweepSteadyStateAllocs: after the symbolic analysis and
// reach plan exist, the per-frequency loop of the diag sweep must not
// allocate — growing the sweep 8x may not add allocations beyond a small
// fixed slack (result rows grow in size, not count).
func TestImpedanceDiagSweepSteadyStateAllocs(t *testing.T) {
	s := compile(t, driftLadder(false))
	op := mustOP(t, s)
	idx := allNodeIdx(s)
	if _, err := s.ImpedanceDiagSweep(context.Background(), sweepFreqs(8), op, idx); err != nil {
		t.Fatal(err)
	}
	measure := func(points int) float64 {
		freqs := sweepFreqs(points)
		return testing.AllocsPerRun(10, func() {
			if _, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(8), measure(64)
	if large > small+8 {
		t.Errorf("allocations scale with sweep length: %v at 8 freqs vs %v at 64 freqs", small, large)
	}
}

// TestImpedanceDiagTrace: a traced diag sweep carries the diag_solve phase
// span, the diag counters, and slow points tagged with the "diag" solver
// path.
func TestImpedanceDiagTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := compile(t, randomLadder(rng, 25))
	op := mustOP(t, s)
	freqs := sweepFreqs(20)
	run := obs.StartRun("diag-trace")
	s.Trace = run
	if _, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, allNodeIdx(s)); err != nil {
		t.Fatal(err)
	}
	run.Finish()
	tr := run.Trace()
	var sawPhase bool
	for _, p := range tr.Phases {
		if p.Phase == "diag_solve" {
			sawPhase = true
		}
	}
	if !sawPhase {
		t.Error("no diag_solve phase span in the trace")
	}
	if got := tr.Counters["ac_diag_solves"]; got != int64(len(freqs)) {
		t.Errorf("trace ac_diag_solves = %d, want %d", got, len(freqs))
	}
	if tr.Counters["ac_diag_rows_visited"] <= 0 {
		t.Error("trace ac_diag_rows_visited missing")
	}
	if len(tr.SlowPoints) == 0 {
		t.Fatal("no slow points captured")
	}
	for i, p := range tr.SlowPoints {
		if p.Detail != solveKindDiag {
			t.Errorf("slow[%d] solver path = %q, want %q", i, p.Detail, solveKindDiag)
		}
	}
}
