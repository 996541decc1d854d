package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"acstab/internal/acerr"
	"acstab/internal/netlist"
)

// randomLadder builds a randomized RC/RLC ladder of n stages driven by an
// AC voltage source. Component values are log-uniform over realistic
// ranges; each stage flips a coin for an extra series inductor, which adds
// branch unknowns and exercises the non-node rows of the MNA system.
func randomLadder(rng *rand.Rand, stages int) *netlist.Circuit {
	c := netlist.NewCircuit("random ladder")
	c.AddV("V1", "s0", "0", netlist.SourceSpec{ACMag: 1})
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	prev := "s0"
	for i := 1; i <= stages; i++ {
		cur := fmt.Sprintf("s%d", i)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, logU(10, 1e5))
		if rng.Intn(2) == 0 {
			mid := fmt.Sprintf("m%d", i)
			c.AddL(fmt.Sprintf("L%d", i), cur, mid, logU(1e-9, 1e-3))
			c.AddR(fmt.Sprintf("RL%d", i), mid, "0", logU(10, 1e4))
		}
		c.AddC(fmt.Sprintf("C%d", i), cur, "0", logU(1e-12, 1e-6))
		prev = cur
	}
	return c
}

// sweepFreqs is a multi-decade log sweep, long enough that the sparse
// path settles into the refactor-only steady state.
func sweepFreqs(points int) []float64 {
	f := make([]float64, points)
	for i := range f {
		f[i] = math.Pow(10, float64(i)*9/float64(points-1)) // 1 Hz .. 1 GHz
	}
	return f
}

// TestACSparseDenseProperty: on randomized RC/RLC ladders the sparse
// engine must agree with the dense oracle within 1e-9 scale-relative
// tolerance for every unknown at every frequency of a multi-decade sweep.
// Ladder sizes span small (under 64 unknowns) and large systems.
func TestACSparseDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	freqs := sweepFreqs(40)
	for trial := 0; trial < 6; trial++ {
		stages := 4 + rng.Intn(8)
		if trial%2 == 1 {
			stages = 40 + rng.Intn(20)
		}
		s := compile(t, randomLadder(rng, stages))
		op := mustOP(t, s)
		rs, err := s.AC(context.Background(), freqs, op)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, s.Sys.NumUnknowns(), err)
		}
		checkSolutions(t, fmt.Sprintf("trial %d (n=%d)", trial, s.Sys.NumUnknowns()),
			freqs, denseAC(t, s.Sys, freqs, op), rs.Sol, oracleTol)
	}
}

// TestImpedanceSparseDenseProperty runs the same agreement check on the
// shared-factorization impedance path, which is the loop the symbolic /
// numeric split actually accelerates.
func TestImpedanceSparseDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	freqs := sweepFreqs(30)
	for trial := 0; trial < 4; trial++ {
		stages := 10 + rng.Intn(30)
		s := compile(t, randomLadder(rng, stages))
		op := mustOP(t, s)
		idx := allNodeIdx(s)
		zs, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		checkImpedances(t, fmt.Sprintf("trial %d", trial), freqs, denseZ(t, s.Sys, freqs, op, idx), zs)
	}
}

// TestImpedanceSteadyStateAllocs: the per-frequency loop of the sparse
// impedance sweep must not allocate — growing the sweep from 8 to 64
// frequencies may not add allocations beyond a small fixed slack (result
// rows grow in size, not in count).
func TestImpedanceSteadyStateAllocs(t *testing.T) {
	c := netlist.NewCircuit("alloc ladder")
	c.AddV("V1", "s0", "0", netlist.SourceSpec{ACMag: 1})
	prev := "s0"
	for i := 1; i <= 40; i++ {
		cur := fmt.Sprintf("s%d", i)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, 1e3)
		c.AddC(fmt.Sprintf("C%d", i), cur, "0", 1e-12)
		prev = cur
	}
	s := compile(t, c)
	op := mustOP(t, s)
	idx := []int{0, 5, 10}

	// Prime the Sim-level symbolic cache so both measurements see the
	// steady state.
	if _, err := s.ImpedanceMatrixColumns(context.Background(), sweepFreqs(8), op, idx); err != nil {
		t.Fatal(err)
	}
	measure := func(points int) float64 {
		freqs := sweepFreqs(points)
		return testing.AllocsPerRun(10, func() {
			if _, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(8), measure(64)
	if large > small+8 {
		t.Errorf("allocations scale with sweep length: %v at 8 freqs vs %v at 64 freqs", small, large)
	}
}

// TestDCSweepCanceled: a canceled context aborts the sweep with the
// cancellation sentinel instead of burning a full cold homotopy per point.
func TestDCSweepCanceled(t *testing.T) {
	c := netlist.NewCircuit("cancel sweep")
	c.AddVDC("V1", "a", "0", 1)
	c.AddR("R1", "a", "b", 1e3)
	c.AddR("R2", "b", "0", 1e3)
	s := compile(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.DCSweep(ctx, "V1", []float64{1, 2, 3})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, acerr.ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
}

// TestDCSweepCurrentSource: the compile-once path must update isrc
// instances too, not just voltage sources.
func TestDCSweepCurrentSource(t *testing.T) {
	c := netlist.NewCircuit("i sweep")
	c.AddI("I1", "0", "a", netlist.SourceSpec{DC: 1e-3})
	c.AddR("R1", "a", "0", 1e3)
	s := compile(t, c)
	vals := []float64{1e-3, 2e-3, 5e-3}
	res, err := s.DCSweep(context.Background(), "I1", vals)
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.NodeWave("a")
	if err != nil {
		t.Fatal(err)
	}
	for k, iv := range vals {
		want := iv * 1e3
		if math.Abs(real(w.Y[k])-want) > 1e-9 {
			t.Errorf("step %d: v(a) = %g, want %g", k, real(w.Y[k]), want)
		}
	}
}
