package tool

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"acstab/internal/analysis"
	"acstab/internal/circuits"
	"acstab/internal/linalg"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
)

func TestReturnRatioSimpleLoop(t *testing.T) {
	// Single-pole loop: G feedback around an RC with known loop gain
	// T(s) = gmr / (1 + sRC): gm = 2m, R = 1k -> T(0) = 2.
	c := netlist.NewCircuit("one pole loop")
	c.AddR("R1", "a", "0", 1e3)
	c.AddC("C1", "a", "0", 1e-9)
	// Negative feedback: current pulled out of a proportional to v(a).
	c.AddG("GLOOP", "a", "0", "a", "0", 2e-3)
	freqs := num.LogGridPPD(1e3, 1e9, 20)
	tw, err := ReturnRatio(context.Background(), c, "GLOOP", freqs)
	if err != nil {
		t.Fatal(err)
	}
	// T at the lowest frequency (1 kHz, two decades below the pole) is
	// ~+2: negative feedback gives a positive return ratio.
	if got := tw.Y[0]; cmplx.Abs(got-2) > 0.05 {
		t.Errorf("T(low f) = %v, want ~2", got)
	}
	// Pole at 1/(2 pi RC) = 159 kHz: at that frequency |T| = 2/sqrt(2).
	fp := 1 / (2 * math.Pi * 1e3 * 1e-9)
	mag := tw.Mag()
	if got := mag.At(fp); math.Abs(got-2/math.Sqrt2) > 0.02 {
		t.Errorf("|T(fp)| = %g, want %g", got, 2/math.Sqrt2)
	}
}

func TestReturnRatioOpAmpMatchesBrokenLoop(t *testing.T) {
	// The rigorous return ratio of the op-amp's input stage must agree
	// with the broken-loop Bode measurement (Fig. 3): same crossover,
	// same phase margin, same 180-degree frequency. (G1 is the right
	// probe: the main loop is the only loop through it. G2 also sits
	// inside the local Miller loop, so RR(G2) mixes both loops.)
	ckt := circuits.OpAmpBuffer(circuits.OpAmpDefaults())
	tw, err := LoopGainGrid(context.Background(), ckt, "g1", 100, 1e9, 40)
	if err != nil {
		t.Fatal(err)
	}
	fc, pm, f180, err := LoopGainMargins(tw)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("return ratio: fc=%.4g pm=%.3g f180=%.4g", fc, pm, f180)
	if !num.ApproxEqual(fc, 2.64e6, 0.03, 0) {
		t.Errorf("fc = %g, want ~2.64 MHz (broken-loop value)", fc)
	}
	if math.Abs(pm-21.8) > 1.5 {
		t.Errorf("pm = %g, want ~21.8", pm)
	}
	if !num.ApproxEqual(f180, 4.0e6, 0.05, 0) {
		t.Errorf("f180 = %g, want ~4.0 MHz", f180)
	}
	// DC loop gain is the full two-stage gain.
	if db := tw.DB20().At(100); db < 60 {
		t.Errorf("T(DC) = %g dB, want > 60", db)
	}
}

func TestReturnRatioAgreesWithStabilityPlot(t *testing.T) {
	// Three methods, one circuit: return ratio, stability plot. The PM
	// estimates agree within a few degrees (the stability plot's estimate
	// is the second-order equivalent).
	ckt := circuits.OpAmpBuffer(circuits.OpAmpDefaults())
	tw, err := LoopGainGrid(context.Background(), ckt, "g1", 100, 1e9, 40)
	if err != nil {
		t.Fatal(err)
	}
	_, pmRR, _, err := LoopGainMargins(tw)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := New(circuits.OpAmpBuffer(circuits.OpAmpDefaults()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nr, err := tl.SingleNode(context.Background(), "output")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmRR-nr.Best.PhaseMarginDeg) > 5 {
		t.Errorf("return-ratio PM %g vs stability-plot PM %g", pmRR, nr.Best.PhaseMarginDeg)
	}
}

func TestReturnRatioErrors(t *testing.T) {
	c := circuits.SecondOrder(0.3, 1e6)
	if _, err := ReturnRatio(context.Background(), c, "nosuch", []float64{1e3}); err == nil {
		t.Error("unknown element should fail")
	}
	if _, err := ReturnRatio(context.Background(), c, "R1", []float64{1e3}); err == nil {
		t.Error("non-VCCS should fail")
	}
}

// loopLadder is an RC ladder whose far end feeds back to its input through
// the VCCS GLOOP; withLoop=false leaves the VCCS out, the circuit the
// return ratio is measured on.
func loopLadder(stages int, withLoop bool) *netlist.Circuit {
	c := netlist.NewCircuit("loop ladder")
	c.AddR("R0", "a0", "0", 1e3)
	for i := 1; i <= stages; i++ {
		cur, prev := fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i-1)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, 1e3)
		c.AddC(fmt.Sprintf("C%d", i), cur, "0", 1e-10)
	}
	if withLoop {
		c.AddG("GLOOP", "a0", "0", fmt.Sprintf("a%d", stages), "0", 5e-3)
	}
	return c
}

// TestReturnRatioDenseOracle checks ReturnRatio against a dense solve of
// the same measurement — the loop's VCCS removed, a unit current injected
// at its output, the control voltage read back — on a system below and
// one above 64 unknowns, at 1e-9 of the solution scale.
func TestReturnRatioDenseOracle(t *testing.T) {
	const gm = 5e-3
	freqs := num.LogGridPPD(1e2, 1e9, 5)
	for _, stages := range []int{8, 80} {
		tw, err := ReturnRatio(context.Background(), loopLadder(stages, true), "GLOOP", freqs)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := mna.Compile(loopLadder(stages, false))
		if err != nil {
			t.Fatal(err)
		}
		op, err := analysis.New(sys).OP(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := sys.NumUnknowns()
		if (stages > 10) != (n > 64) {
			t.Fatalf("%d stages compiled to %d unknowns", stages, n)
		}
		out, _ := sys.NodeOf("a0")
		ctrl, _ := sys.NodeOf(fmt.Sprintf("a%d", stages))
		for k, f := range freqs {
			m := linalg.NewCMatrix(n)
			sys.StampAC(m, nil, 2*math.Pi*f, op)
			b := make([]complex128, n)
			b[out] = -1
			x, err := linalg.CSolveDense(m, b)
			if err != nil {
				t.Fatal(err)
			}
			scale := 0.0
			for _, v := range x {
				scale = math.Max(scale, cmplx.Abs(v))
			}
			want := -complex(gm, 0) * x[ctrl]
			if d := cmplx.Abs(tw.Y[k] - want); d > 1e-9*gm*scale {
				t.Fatalf("n=%d f=%g Hz: T = %v, dense oracle %v", n, f, tw.Y[k], want)
			}
		}
	}
}
