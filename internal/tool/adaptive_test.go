package tool

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
)

// randomTankLadder builds an RLC ladder of k parallel resonant tanks with
// randomized natural frequencies and dampings, chained through coupling
// resistors so the whole thing is one connected circuit. Each tank
// resonates at its own fn with zeta = sqrt(L/C)/(2R).
func randomTankLadder(rng *rand.Rand, k int) (*netlist.Circuit, []float64, []float64) {
	c := netlist.NewCircuit("random tank ladder")
	fns := make([]float64, k)
	zetas := make([]float64, k)
	prev := ""
	for i := 0; i < k; i++ {
		// Keep the resonances at least a half-decade apart so loop
		// clustering cannot merge neighbors.
		fns[i] = math.Pow(10, 4.5+1.2*float64(i)+0.5*rng.Float64())
		zetas[i] = 0.12 + 0.3*rng.Float64()
		node := "t" + string(rune('a'+i))
		wn := 2 * math.Pi * fns[i]
		l := 1e-6 * math.Pow(10, rng.Float64())
		cf := 1 / (wn * wn * l)
		r := math.Sqrt(l/cf) / (2 * zetas[i])
		c.AddR("R"+node, node, "0", r)
		c.AddL("L"+node, node, "0", l)
		c.AddC("C"+node, node, "0", cf)
		if prev != "" {
			// Weak coupling: high enough not to move the poles, present so
			// the matrix is one connected system.
			c.AddR("RX"+node, prev, node, 1e9)
		}
		prev = node
	}
	return c, fns, zetas
}

// TestAdaptiveMatchesDenseQuick is the tentpole property test: on
// randomized RLC ladders, an adaptive run must (a) find the same loops as
// the dense uniform sweep, (b) land each loop's fn and zeta within the
// method's own tolerance, and (c) solve strictly fewer (node, frequency)
// pairs than the dense grid would.
func TestAdaptiveMatchesDenseQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(2)
		ckt, _, _ := randomTankLadder(rng, k)

		dense := DefaultOptions()
		dense.FStart, dense.FStop = 1e3, 1e9
		dense.Workers = 1
		dt, err := New(ckt, dense)
		if err != nil {
			return false
		}
		drep, err := dt.AllNodes(context.Background())
		if err != nil {
			return false
		}

		adaptive := dense
		adaptive.CoarsePointsPerDecade = 8
		adaptive.Trace = obs.StartRun("adaptive-quick")
		at, err := New(ckt, adaptive)
		if err != nil {
			return false
		}
		arep, err := at.AllNodes(context.Background())
		if err != nil {
			return false
		}

		if len(arep.Loops) != len(drep.Loops) {
			t.Logf("seed %d: adaptive found %d loops, dense %d", seed, len(arep.Loops), len(drep.Loops))
			return false
		}
		for i := range drep.Loops {
			dl, al := drep.Loops[i], arep.Loops[i]
			if !num.ApproxEqual(al.Freq, dl.Freq, 0.05, 0) {
				t.Logf("seed %d loop %d: adaptive fn %g vs dense %g", seed, i, al.Freq, dl.Freq)
				return false
			}
			if !num.ApproxEqual(al.Zeta, dl.Zeta, 0.2, 0) {
				t.Logf("seed %d loop %d: adaptive zeta %g vs dense %g", seed, i, al.Zeta, dl.Zeta)
				return false
			}
		}
		tr := adaptive.Trace.Trace()
		pairs := tr.Counters["adaptive_solve_pairs"]
		densePairs := tr.Counters["adaptive_dense_pairs"]
		if pairs <= 0 || densePairs <= 0 || pairs >= densePairs {
			t.Logf("seed %d: adaptive solved %d pairs, dense grid is %d — no win", seed, pairs, densePairs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestAdaptiveSingleNode covers the single-node adaptive path: same
// circuit, the adaptive estimate must match the dense one and the node's
// grid must be denser near the resonance than far from it.
func TestAdaptiveSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ckt, fns, zetas := randomTankLadder(rng, 2)

	dense := DefaultOptions()
	dense.FStart, dense.FStop = 1e3, 1e9
	dt, err := New(ckt, dense)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := dt.SingleNode(context.Background(), "ta")
	if err != nil {
		t.Fatal(err)
	}

	adaptive := dense
	adaptive.CoarsePointsPerDecade = 8
	at, err := New(ckt, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	an, err := at.SingleNode(context.Background(), "ta")
	if err != nil {
		t.Fatal(err)
	}
	if an.Best == nil || dn.Best == nil {
		t.Fatal("missing dominant peak")
	}
	if !num.ApproxEqual(an.Best.Freq, fns[0], 0.05, 0) {
		t.Errorf("adaptive fn = %g, want %g", an.Best.Freq, fns[0])
	}
	if !num.ApproxEqual(an.Best.Zeta, zetas[0], 0.25, 0) {
		t.Errorf("adaptive zeta = %g, want %g", an.Best.Zeta, zetas[0])
	}
	if !num.ApproxEqual(an.Best.Freq, dn.Best.Freq, 0.05, 0) {
		t.Errorf("adaptive fn %g vs dense %g", an.Best.Freq, dn.Best.Freq)
	}
	aw, dw := an.Impedance, dn.Impedance
	if aw.Len() >= dw.Len() {
		t.Errorf("adaptive grid has %d points, dense %d — no reduction", aw.Len(), dw.Len())
	}
	// Spacing near the resonance must reach the dense resolution while the
	// flat regions stay coarse.
	duNear, duFar := math.Inf(1), 0.0
	for i := 1; i < aw.Len(); i++ {
		du := math.Log(aw.X[i] / aw.X[i-1])
		mid := math.Sqrt(aw.X[i] * aw.X[i-1])
		if mid > fns[0]/1.3 && mid < fns[0]*1.3 {
			if du < duNear {
				duNear = du
			}
		} else if mid > fns[0]*100 || mid < fns[0]/100 {
			if du > duFar {
				duFar = du
			}
		}
	}
	if duNear > 1.5*math.Ln10/40 {
		t.Errorf("near-peak spacing %g never reached the dense target %g", duNear, math.Ln10/40)
	}
	if duFar < 2*duNear {
		t.Errorf("far-field spacing %g not meaningfully coarser than near-peak %g", duFar, duNear)
	}
}

// TestAdaptiveOptionValidation pins the option-validation contract: a
// negative coarse density, a coarse density above PointsPerDecade, an
// adaptive PointsPerDecade above the unbounded-refinement guard, and dense
// or coarse grids above maxSweepPoints are all rejected at Tool
// construction with an *OptionError naming the option at fault.
func TestAdaptiveOptionValidation(t *testing.T) {
	base := DefaultOptions()
	cases := []struct {
		name   string
		mut    func(*Options)
		option string
	}{
		{"negative coarse", func(o *Options) { o.CoarsePointsPerDecade = -1 }, "CoarsePointsPerDecade"},
		{"coarse above ppd", func(o *Options) {
			o.CoarsePointsPerDecade = 8
			o.PointsPerDecade = 4
		}, "CoarsePointsPerDecade"},
		{"unbounded adaptive ppd", func(o *Options) {
			o.FStart, o.FStop = 1e3, 1e6
			o.CoarsePointsPerDecade = 8
			o.PointsPerDecade = 20000
		}, "PointsPerDecade"},
		{"oversize dense grid", func(o *Options) { o.PointsPerDecade = 1e9 }, "PointsPerDecade"},
		{"unbounded span", func(o *Options) { o.FStart, o.FStop = 1e-300, 1e300 }, "PointsPerDecade"},
		{"oversize coarse grid", func(o *Options) {
			o.FStart, o.FStop = 1, 1e30
			o.CoarsePointsPerDecade = 5000
			o.PointsPerDecade = 5000
		}, "CoarsePointsPerDecade"},
		{"inverted range", func(o *Options) { o.FStart, o.FStop = 1e6, 10 }, "FStop"},
		{"zero start", func(o *Options) { o.FStart = 0 }, "FStart"},
	}
	ckt, _, _ := randomTankLadder(rand.New(rand.NewSource(1)), 1)
	for _, tc := range cases {
		opts := base
		tc.mut(&opts)
		_, err := New(ckt, opts)
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: err = %v, want *OptionError", tc.name, err)
			continue
		}
		if oe.Option != tc.option {
			t.Errorf("%s: option %q, want %q", tc.name, oe.Option, tc.option)
		}
	}
	// The happy path refines up to PointsPerDecade at the fixed |P|
	// threshold, and resolved options resolve to themselves.
	opts := base
	opts.CoarsePointsPerDecade = 8
	tl, err := New(ckt, opts)
	if err != nil {
		t.Fatal(err)
	}
	ro := tl.refineOptions()
	if ro.PeakDU != math.Ln10/float64(tl.Opts.PointsPerDecade) || ro.Threshold != refineThreshold {
		t.Errorf("refinement %+v, want the PointsPerDecade cap at threshold %g", ro, refineThreshold)
	}
	again, err := ResolveOptions(tl.Opts)
	if err != nil || !reflect.DeepEqual(again, tl.Opts) {
		t.Errorf("resolved options are not a fixed point: %v\n %+v\n %+v", err, tl.Opts, again)
	}
}
