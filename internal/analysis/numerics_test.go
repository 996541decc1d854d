package analysis

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"acstab/internal/acerr"
	"acstab/internal/obs"
)

// TestACResidualTelemetry: a healthy sparse sweep verifies every
// frequency point, reports residuals at noise level, observes pivot
// growth and a condition estimate, and flushes the worst points into the
// run trace tagged "residual".
func TestACResidualTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := compile(t, randomLadder(rng, 25))
	op := mustOP(t, s)
	freqs := sweepFreqs(24)
	run := obs.StartRun("numerics-telemetry")
	s.Trace = run
	if _, err := s.AC(context.Background(), freqs, op); err != nil {
		t.Fatal(err)
	}
	run.Finish()
	tr := run.Trace()

	if got := tr.Counters["ac_residual_points"]; got != int64(len(freqs)) {
		t.Errorf("ac_residual_points = %d, want %d (every point verified)", got, len(freqs))
	}
	if got := tr.Counters["ac_residual_breaches"]; got != 0 {
		t.Errorf("ac_residual_breaches = %d on a healthy circuit, want 0", got)
	}
	resMax := tr.Stats["numerics_residual_max"]
	if resMax <= 0 || resMax > 1e-12 {
		t.Errorf("numerics_residual_max = %g, want (0, 1e-12]", resMax)
	}
	if g := tr.Stats["numerics_pivot_growth_max"]; g <= 0 {
		t.Errorf("numerics_pivot_growth_max = %g, want > 0", g)
	}
	if c := tr.Stats["numerics_cond_est_max"]; c < 1 {
		t.Errorf("numerics_cond_est_max = %g, want >= 1", c)
	}
	// The per-decade digest must account for every verified point.
	var digest int64
	for d := obs.ResidualDecadeMin; d <= obs.ResidualDecadeMax; d++ {
		digest += tr.Counters[obs.ResidualDecadeKey(d)]
	}
	if digest != int64(len(freqs)) {
		t.Errorf("decade digest sums to %d, want %d", digest, len(freqs))
	}
	if med, ok := obs.MedianResidual(tr.Counters); !ok || med <= 0 || med > 1e-10 {
		t.Errorf("median residual = %g (ok=%v), want (0, 1e-10]", med, ok)
	}
	var health int
	for _, p := range tr.SlowPoints {
		if p.Detail == "residual" {
			health++
			if p.Residual <= 0 {
				t.Errorf("health point at %g Hz has residual %g, want > 0", p.FreqHz, p.Residual)
			}
		}
	}
	if health == 0 || health > obs.MaxHealthPoints {
		t.Errorf("health points = %d, want 1..%d", health, obs.MaxHealthPoints)
	}
}

// TestACResidualDisabled: a negative threshold turns the observatory off —
// no residual counters, no stats, no health points, no error paths.
func TestACResidualDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := compile(t, randomLadder(rng, 20))
	s.Opt.ResidualThreshold = -1
	op := mustOP(t, s)
	run := obs.StartRun("numerics-off")
	s.Trace = run
	if _, err := s.AC(context.Background(), sweepFreqs(16), op); err != nil {
		t.Fatal(err)
	}
	run.Finish()
	tr := run.Trace()
	if got := tr.Counters["ac_residual_points"]; got != 0 {
		t.Errorf("ac_residual_points = %d with the observatory disabled, want 0", got)
	}
	if _, ok := tr.Stats["numerics_residual_max"]; ok {
		t.Error("numerics_residual_max stat present with the observatory disabled")
	}
}

// TestACResidualImpossibleThreshold: a threshold below what double
// precision can deliver walks the whole escalation ladder — refinement,
// refactorization — and then surfaces the typed accuracy error.
func TestACResidualImpossibleThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	s := compile(t, randomLadder(rng, 20))
	s.Opt.ResidualThreshold = 1e-30
	op := mustOP(t, s)
	run := obs.StartRun("numerics-impossible")
	s.Trace = run
	_, err := s.AC(context.Background(), sweepFreqs(8), op)
	run.Finish()
	if err == nil {
		t.Fatal("1e-30 threshold produced no error")
	}
	if !errors.Is(err, acerr.ErrAccuracy) {
		t.Fatalf("error %v does not wrap ErrAccuracy", err)
	}
	tr := run.Trace()
	if got := tr.Counters["ac_residual_breaches"]; got < 1 {
		t.Errorf("ac_residual_breaches = %d, want >= 1", got)
	}
	if got := tr.Counters["ac_refinements"]; got < 1 {
		t.Errorf("ac_refinements = %d, want >= 1 (the ladder must try before failing)", got)
	}
}

// compileMarginalIsland compiles fallbackIslandCircuit with two changes
// that turn the collapse rig into a breach rig: the island capacitor is
// raised to 1e-21 F (its MHz admittance clears the refactor
// collapsed-pivot guard instead of tripping it, so the doctored order
// survives Refactor with pivot growth ~1e11), and the island is coupled
// into several ladder nodes so elimination through the bad pivot builds
// fill chains whose cancellation actually accumulates roundoff — a lone
// coupling cancels exactly and stays backward-stable despite the growth.
func compileMarginalIsland(t *testing.T) *Sim {
	t.Helper()
	c := fallbackIslandCircuit(8)
	c.AddC("CZ2", "zp", "zq", 1e-21)
	c.AddR("RQ2", "zq", "s2", 1e3)
	c.AddR("RQ4", "zq", "s4", 1e3)
	c.AddR("RQ6", "zq", "s6", 1e3)
	c.AddR("RP3", "zp", "s3", 1e3)
	c.AddR("RP5", "zp", "s5", 1e3)
	return compile(t, c)
}

// TestACResidualBreachRepaired forces genuine residual breaches: under
// the doctored marginal-pivot order every frequency's refactor solve is
// inaccurate (pivot growth ~1e8), the verify ladder refines and/or
// escalates to a fresh full factorization, and the sweep must complete
// with every final residual back under the threshold — no typed error.
func TestACResidualBreachRepaired(t *testing.T) {
	freqs := []float64{1e6, 2e6, 5e6, 1e7}
	s := compileMarginalIsland(t)
	op := mustOP(t, s)
	pat, sym := doctoredSymbolic(t, s, op, 2*math.Pi*freqs[0])
	installSymbolic(s, pat, sym)

	run := obs.StartRun("numerics-breach")
	s.Trace = run
	res, err := s.AC(context.Background(), freqs, op)
	run.Finish()
	if err != nil {
		t.Fatalf("breached sweep did not recover: %v", err)
	}
	tr := run.Trace()
	if got := tr.Counters["ac_residual_breaches"]; got < 1 {
		t.Fatalf("ac_residual_breaches = %d, want >= 1 (the rig failed to force a breach)", got)
	}
	if got := tr.Counters["ac_refinements"]; got < 1 {
		t.Errorf("ac_refinements = %d, want >= 1", got)
	}
	if resMax := tr.Stats["numerics_residual_max"]; resMax > defResidualThreshold {
		t.Errorf("final numerics_residual_max = %g, want <= %g (repair must restore accuracy)",
			resMax, defResidualThreshold)
	}

	// The repaired solutions must match an independent dense solve. The
	// bound is forward error, κ·η — the rig's island makes the system
	// genuinely nastier than a healthy ladder, so this is loose by design.
	checkSolutions(t, "repaired sweep", freqs, denseAC(t, s.Sys, freqs, op), res.Sol, 1e-5)
}

// TestACResidualBoundsTrueError: the textbook forward-error bound — on
// randomized RC/RLC ladders the sparse solution's true deviation from the
// dense reference must be within a modest factor of (condition estimate ×
// reported residual). The reported health numbers are only useful if they
// actually dominate the real error.
func TestACResidualBoundsTrueError(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	freqs := sweepFreqs(20)
	for trial := 0; trial < 4; trial++ {
		s := compile(t, randomLadder(rng, 12+rng.Intn(20)))
		op := mustOP(t, s)
		n := s.Sys.NumUnknowns()

		run := obs.StartRun("numerics-bound")
		s.Trace = run
		rs, err := s.AC(context.Background(), freqs, op)
		if err != nil {
			t.Fatal(err)
		}
		run.Finish()
		s.Trace = nil
		tr := run.Trace()
		resMax := tr.Stats["numerics_residual_max"]
		condMax := tr.Stats["numerics_cond_est_max"]
		if resMax <= 0 || condMax < 1 {
			t.Fatalf("trial %d: missing health stats (resMax %g, condMax %g)", trial, resMax, condMax)
		}

		rd := denseAC(t, s.Sys, freqs, op)
		// κ is sampled, not tracked per point, so give the bound two orders
		// of slack plus a floor for the dense reference's own roundoff.
		bound := 100*condMax*resMax + 1e-11
		for k := range freqs {
			scale := 0.0
			for i := 0; i < n; i++ {
				if a := cmplx.Abs(rd[k][i]); a > scale {
					scale = a
				}
			}
			if scale == 0 {
				scale = 1
			}
			for i := 0; i < n; i++ {
				if d := cmplx.Abs(rd[k][i] - rs.Sol[k][i]); d > bound*scale {
					t.Fatalf("trial %d f=%g Hz unknown %d: true error %g exceeds health bound %g (κ %g, η %g)",
						trial, freqs[k], i, d/scale, bound, condMax, resMax)
				}
			}
		}
	}
}
