package analysis

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"acstab/internal/circuits"
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
// selected-inverse diagonal kernel, the full shared-factorization sweep,
// and the dense oracle must agree on every Z_kk to 1e-9 scale-relative
// across a multi-decade sweep; the kernel counters must show the diag path
// actually ran with zero fallbacks and zero probe disagreements.
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
		solves0, falls0, breach0 := mACDiagSolves.Value(), mACDiagFallbacks.Value(), mACResidualBreaches.Value()
		zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		if d := mACResidualBreaches.Value() - breach0; d != 0 {
			t.Errorf("trial %d: %d residual breaches (probe disagreements), want 0", trial, d)
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
// or stale analysis. The cached pencil is dropped, so the next sweep
// builds one over the installed pattern and checks its stream against it.
func installSymbolic(s *Sim, pat *sparse.Pattern, sym *sparse.Symbolic) {
	sh := s.acShared()
	sh.mu.Lock()
	sh.pat, sh.sym, sh.pen = pat, sym, nil
	sh.selSym, sh.selInv = nil, nil
	sh.mu.Unlock()
}

// TestImpedanceDiagRefactorFallback forces every frequency of a diag sweep
// onto the refactor-fallback path: the symbolic analysis is built from
// doctored values that pivot column zq on the (zp, zq) entry, which in the
// real matrix is a ~1e-30 capacitor — each Refactor hits the collapsed-
// pivot guard, is re-pivoted on its filled values, and the diag sweep
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

// TestImpedanceDiagPatternDrift forces the stream-mismatch path: the
// sweep starts under a symbolic analysis recorded from a different stamp
// stream (same node set, one extra element), so the pencil build's stream
// check re-records the pattern and rebuilds the analysis once, and the
// whole sweep then runs the selected-inverse kernel on it — no diag
// fallbacks, results agreeing with the dense oracle.
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
	builds0, falls0 := mACSymbolicBuilds.Value(), mACDiagFallbacks.Value()
	zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	if d := mACSymbolicBuilds.Value() - builds0; d != 1 {
		t.Errorf("symbolic builds delta = %d, want 1 (the stream check rebuilds)", d)
	}
	if d := mACDiagFallbacks.Value() - falls0; d != 0 {
		t.Errorf("diag fallbacks delta = %d, want 0 (the rebuilt analysis serves the whole sweep)", d)
	}
	checkImpedances(t, "drift path", freqs, denseZ(t, s.Sys, freqs, op, idx), zg)
}

// TestImpedanceDiagSweepSteadyStateAllocs: after the symbolic analysis and
// selected-inverse schedule exist, the per-frequency loop of the diag sweep must not
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

// TestImpedanceDiagStructuralClosure: node "a" is touched only by a
// voltage source and an inductor, so its MNA row has no stamped diagonal.
// The pattern's structural-diagonal closure still puts (A⁻¹)_aa on the
// filled pattern: every point runs the kernel, none falls back, and the
// values match the dense oracle.
func TestImpedanceDiagStructuralClosure(t *testing.T) {
	c := netlist.NewCircuit("vsource-inductor node")
	c.AddV("V1", "a", "0", netlist.SourceSpec{ACMag: 1})
	c.AddL("L1", "a", "b", 1e-6)
	c.AddR("R1", "b", "0", 50)
	c.AddC("C1", "b", "0", 1e-9)
	s := compile(t, c)
	op := mustOP(t, s)
	freqs := sweepFreqs(16)
	idx := allNodeIdx(s)
	solves0, falls0 := mACDiagSolves.Value(), mACDiagFallbacks.Value()
	zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	if d := mACDiagFallbacks.Value() - falls0; d != 0 {
		t.Errorf("diag fallbacks delta = %d, want 0", d)
	}
	if d := mACDiagSolves.Value() - solves0; d != int64(len(freqs)) {
		t.Errorf("diag solves delta = %d, want %d", d, len(freqs))
	}
	checkImpedances(t, "closure", freqs, denseZ(t, s.Sys, freqs, op, idx), zg)
}

// TestImpedanceDiagSeedCircuits: every seed circuit, VCCS/CCCS-bearing
// transistor small-signal models included, runs its all-nodes diagonal
// sweep entirely on the kernel — zero fallbacks, zero probe disagreements
// — and agrees with the dense oracle.
func TestImpedanceDiagSeedCircuits(t *testing.T) {
	seeds := []struct {
		name string
		ckt  *netlist.Circuit
	}{
		{"second-order", circuits.SecondOrder(0.35, 1e6)},
		{"opamp-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults())},
		{"bias", circuits.BiasCircuit(circuits.BiasDefaults())},
		{"full", circuits.FullCircuit()},
		{"transistor-opamp", circuits.TransistorOpAmp()},
		{"transistor-bias", circuits.TransistorBias()},
		{"rc-ladder-40", circuits.RCLadder(40)},
		{"resonator-field-8", circuits.ResonatorField(8, 1e5, 0.35)},
	}
	freqs := sweepFreqs(25)
	for _, sc := range seeds {
		t.Run(sc.name, func(t *testing.T) {
			s := compile(t, sc.ckt)
			op := mustOP(t, s)
			idx := allNodeIdx(s)
			falls0, breach0 := mACDiagFallbacks.Value(), mACResidualBreaches.Value()
			zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
			if err != nil {
				t.Fatal(err)
			}
			if d := mACDiagFallbacks.Value() - falls0; d != 0 {
				t.Errorf("diag fallbacks delta = %d, want 0", d)
			}
			if d := mACResidualBreaches.Value() - breach0; d != 0 {
				t.Errorf("residual breaches delta = %d, want 0", d)
			}
			checkImpedances(t, sc.name, freqs, denseZ(t, s.Sys, freqs, op, idx), zg)
		})
	}
}

// TestImpedanceDiagProbeOracle drives the sampled probe directly. A
// kernel value within tolerance of the verified full solve is kept as is
// (the probe does not overwrite it, so results do not depend on where
// probes fall); a value that disagrees counts as a residual breach and
// the point is recomputed with full substitutions.
func TestImpedanceDiagProbeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := compile(t, randomLadder(rng, 12))
	op := mustOP(t, s)
	idx := allNodeIdx(s)
	const f = 1e5
	want := denseZ(t, s.Sys, []float64{f}, op, idx)
	n := s.Sys.NumUnknowns()
	b := make([]complex128, n)
	x := make([]complex128, n)

	probe := func(out [][]complex128) *acFactorizer {
		fz := s.newACFactorizer(2*math.Pi*f, op)
		defer fz.flush()
		slv, err := fz.at(2 * math.Pi * f)
		if err != nil {
			t.Fatal(err)
		}
		if err := fz.probeDiag(slv, f, 0, idx, out, b, x); err != nil {
			t.Fatal(err)
		}
		return fz
	}
	column := func(perturb complex128) [][]complex128 {
		out := make([][]complex128, len(idx))
		for i := range out {
			out[i] = []complex128{want[i][0]}
		}
		out[0][0] += perturb
		return out
	}

	// Node 0 is pinned by the source, so Z_00 is ~0 and the probe's scale
	// is the unit branch current of ‖x‖∞: perturbations are absolute.
	// Agreement: the kernel's (slightly perturbed) value survives.
	out := column(1e-13)
	kept := out[0][0]
	breach0 := mACResidualBreaches.Value()
	if fz := probe(out); fz.kind != solveKindRefactor {
		t.Errorf("agreeing probe changed the solver path to %q", fz.kind)
	}
	if out[0][0] != kept {
		t.Errorf("agreeing probe overwrote the kernel value: %v -> %v", kept, out[0][0])
	}
	if d := mACResidualBreaches.Value() - breach0; d != 0 {
		t.Errorf("agreeing probe counted %d breaches", d)
	}

	// Disagreement: breach counted, the point redone with full solves.
	out = column(1e-3)
	out[len(out)-1][0] = 0 // another node's value must be recomputed too
	breach0, falls0 := mACResidualBreaches.Value(), mACDiagFallbacks.Value()
	if fz := probe(out); fz.kind != solveKindDiagMismatch {
		t.Errorf("disagreeing probe left solver path %q, want %q", fz.kind, solveKindDiagMismatch)
	}
	if d := mACResidualBreaches.Value() - breach0; d != 1 {
		t.Errorf("disagreeing probe counted %d breaches, want 1", d)
	}
	if d := mACDiagFallbacks.Value() - falls0; d != 1 {
		t.Errorf("disagreeing probe counted %d diag fallbacks, want 1", d)
	}
	checkImpedances(t, "repaired point", []float64{f}, want, out)
}
