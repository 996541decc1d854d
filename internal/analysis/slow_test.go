package analysis

import (
	"context"
	"math/rand"
	"testing"

	"acstab/internal/obs"
)

// TestACSlowPointCapture: a traced sweep records the worst-K frequency
// points, each tagged with the solver path that produced it; an untraced
// sweep records nothing and pays nothing.
func TestACSlowPointCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := compile(t, randomLadder(rng, 50))
	op := mustOP(t, s)
	freqs := sweepFreqs(40)

	run := obs.StartRun("slow-capture")
	s.Trace = run
	if _, err := s.AC(context.Background(), freqs, op); err != nil {
		t.Fatal(err)
	}
	run.Finish()

	tr := run.Trace()
	if len(tr.SlowPoints) == 0 || len(tr.SlowPoints) > obs.MaxSlowPoints+obs.MaxHealthPoints {
		t.Fatalf("slow points = %d, want 1..%d", len(tr.SlowPoints), obs.MaxSlowPoints+obs.MaxHealthPoints)
	}
	valid := map[string]bool{
		"full": true, "refactor": true,
		"refactor_fallback": true, "diag": true,
	}
	wall, health := 0, 0
	prevWall := int64(0)
	for i, p := range tr.SlowPoints {
		if p.FreqHz < freqs[0] || p.FreqHz > freqs[len(freqs)-1] {
			t.Errorf("slow[%d] frequency %g outside the sweep", i, p.FreqHz)
		}
		if p.Detail == "residual" {
			// Worst-residual health capture rides along with its own quota,
			// sorted after the wall-time points.
			health++
			if p.Residual <= 0 {
				t.Errorf("slow[%d] residual point without residual: %+v", i, p)
			}
			continue
		}
		wall++
		if health > 0 {
			t.Errorf("slow[%d] wall point after a residual point", i)
		}
		if p.WallNS <= 0 {
			t.Errorf("slow[%d] has non-positive wall time: %+v", i, p)
		}
		if !valid[p.Detail] {
			t.Errorf("slow[%d] solver path = %q, not a known kind", i, p.Detail)
		}
		if wall > 1 && p.WallNS > prevWall {
			t.Errorf("slow points not sorted worst-first at %d", i)
		}
		prevWall = p.WallNS
	}
	if wall == 0 || wall > obs.MaxSlowPoints {
		t.Errorf("wall slow points = %d, want 1..%d", wall, obs.MaxSlowPoints)
	}
	if health > obs.MaxHealthPoints {
		t.Errorf("health points = %d, want <=%d", health, obs.MaxHealthPoints)
	}

	// Untraced: the impedance path with no trace attached must stay silent.
	s.Trace = nil
	if _, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
}

// TestImpedanceSlowPointCapture covers the shared-factorization loop and
// the diagonal sweep. Every diag-sweep point is timed on its own, so the
// slowest points carry their own wall times instead of one block time
// shared by every frequency refilled together.
func TestImpedanceSlowPointCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := compile(t, randomLadder(rng, 30))
	op := mustOP(t, s)
	run := obs.StartRun("slow-z")
	s.Trace = run
	if _, err := s.ImpedanceMatrixColumns(context.Background(), sweepFreqs(20), op, []int{0, 3}); err != nil {
		t.Fatal(err)
	}
	run.Finish()
	tr := run.Trace()
	if len(tr.SlowPoints) == 0 || len(tr.SlowPoints) > obs.MaxSlowPoints+obs.MaxHealthPoints {
		t.Fatalf("slow points = %d, want 1..%d", len(tr.SlowPoints), obs.MaxSlowPoints+obs.MaxHealthPoints)
	}

	run = obs.StartRun("slow-diag")
	s.Trace = run
	if _, err := s.ImpedanceDiagSweep(context.Background(), sweepFreqs(40), op, allNodeIdx(s)); err != nil {
		t.Fatal(err)
	}
	run.Finish()
	walls := map[int64]bool{}
	freqs := map[float64]bool{}
	n := 0
	for _, p := range run.Trace().SlowPoints {
		if p.Detail == "residual" {
			continue
		}
		n++
		walls[p.WallNS] = true
		freqs[p.FreqHz] = true
	}
	if n != obs.MaxSlowPoints {
		t.Fatalf("diag sweep kept %d wall slow points, want %d", n, obs.MaxSlowPoints)
	}
	if len(freqs) != n {
		t.Errorf("slow points repeat a frequency: %d distinct of %d", len(freqs), n)
	}
	// Clock ties between two separately timed points are possible but
	// rare; a shared per-block duration would collapse the set to one or
	// two values.
	if len(walls) <= n/2 {
		t.Errorf("slowest diag points carry %d distinct wall times of %d, want per-point durations", len(walls), n)
	}
}
