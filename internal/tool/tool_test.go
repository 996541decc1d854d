package tool

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/num"
)

func TestSingleNodeSecondOrder(t *testing.T) {
	tl, err := New(circuits.SecondOrder(0.3, 1e6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nr, err := tl.SingleNode(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if nr.Skipped || nr.Best == nil {
		t.Fatalf("result: %+v", nr)
	}
	if !num.ApproxEqual(nr.Best.Freq, 1e6, 0.03, 0) ||
		!num.ApproxEqual(nr.Best.Zeta, 0.3, 0.05, 0) {
		t.Errorf("peak %+v", nr.Best)
	}
	if nr.Impedance == nil || nr.Stab == nil {
		t.Error("missing waveforms")
	}
}

func TestSingleNodeErrors(t *testing.T) {
	tl, err := New(circuits.SecondOrder(0.3, 1e6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.SingleNode(context.Background(), "nosuch"); err == nil {
		t.Error("expected unknown-node error")
	}
	if _, err := tl.SingleNode(context.Background(), "0"); err == nil {
		t.Error("expected ground error")
	}
	if _, err := New(circuits.SecondOrder(0.3, 1e6), Options{FStart: -1, FStop: 1}); err == nil {
		t.Error("expected bad-range error")
	}
}

func TestAutoZeroAC(t *testing.T) {
	c := circuits.SecondOrder(0.3, 1e6)
	c.AddI("Istim", "0", "t", netlist.SourceSpec{ACMag: 5})
	tl, err := New(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The flattened copy must have the stimulus zeroed; the original kept.
	if tl.Flat.Element("istim").Src.ACMag != 0 {
		t.Error("AC stimulus not auto-zeroed in the run copy")
	}
	if c.Element("istim").Src.ACMag != 5 {
		t.Error("original circuit must not be modified")
	}
	nr, err := tl.SingleNode(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if !num.ApproxEqual(nr.Best.Zeta, 0.3, 0.05, 0) {
		t.Errorf("stimulus corrupted the analysis: %+v", nr.Best)
	}
}

func TestAllNodesDrivenNodeSkipped(t *testing.T) {
	c := circuits.SecondOrder(0.3, 1e6)
	c.AddVDC("VS", "drv", "0", 1)
	c.AddR("RD", "drv", "t", 1e6)
	tl, err := New(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var drv *NodeResult
	for i := range rep.Nodes {
		if rep.Nodes[i].Node == "drv" {
			drv = &rep.Nodes[i]
		}
	}
	if drv == nil || !drv.Skipped {
		t.Errorf("driven node not skipped: %+v", drv)
	}
}

func TestAllNodesTable2(t *testing.T) {
	tl, err := New(circuits.FullCircuit(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) < 2 {
		t.Fatalf("found %d loops, want >= 2 (main + bias)", len(rep.Loops))
	}
	// Loop 1: main loop near 3 MHz containing the five paper nodes.
	main := rep.Loops[0]
	if !num.ApproxEqual(main.Freq, 3.1e6, 0.12, 0) {
		t.Errorf("main loop at %g, want ~3.1 MHz", main.Freq)
	}
	members := map[string]bool{}
	for _, np := range main.Nodes {
		members[np.Node] = true
	}
	for _, want := range []string{"output", "net052", "net136", "net138", "net99"} {
		if !members[want] {
			t.Errorf("main loop missing node %s (has %v)", want, main.Nodes)
		}
	}
	if main.WorstPeak > -24 || main.WorstPeak < -34 {
		t.Errorf("main loop worst peak = %g", main.WorstPeak)
	}
	// Bias loops in the tens of MHz.
	foundBias := false
	for _, l := range rep.Loops[1:] {
		if l.Freq > 30e6 && l.Freq < 70e6 {
			foundBias = true
		}
	}
	if !foundBias {
		t.Errorf("no bias loop in the 30-70 MHz band: %+v", rep.Loops)
	}
	// Main loop is the most dangerous one.
	if w := WorstLoop(rep); w == nil || !num.ApproxEqual(w.Freq, main.Freq, 1e-9, 0) {
		t.Errorf("worst loop = %+v", w)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) *Report {
		opts := DefaultOptions()
		opts.Workers = workers
		tl, err := New(circuits.FullCircuit(), opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tl.AllNodes(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := mk(1)
	parallel := mk(4)
	if len(serial.Nodes) != len(parallel.Nodes) {
		t.Fatal("node count differs")
	}
	for i := range serial.Nodes {
		a, b := serial.Nodes[i], parallel.Nodes[i]
		if a.Node != b.Node || a.Skipped != b.Skipped {
			t.Fatalf("node %d differs: %v vs %v", i, a.Node, b.Node)
		}
		if a.Best == nil != (b.Best == nil) {
			t.Fatalf("node %s best mismatch", a.Node)
		}
		if a.Best != nil && (math.Abs(a.Best.Freq-b.Best.Freq) > 1e-6*a.Best.Freq ||
			math.Abs(a.Best.Value-b.Best.Value) > 1e-9*math.Abs(a.Best.Value)) {
			t.Fatalf("node %s peaks differ: %+v vs %+v", a.Node, a.Best, b.Best)
		}
	}
}

func TestNaiveMatchesShared(t *testing.T) {
	mk := func(naive bool) *Report {
		opts := DefaultOptions()
		opts.Naive = naive
		opts.PointsPerDecade = 20 // keep the naive run quick
		tl, err := New(circuits.BiasCircuit(circuits.BiasDefaults()), opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tl.AllNodes(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	shared := mk(false)
	naive := mk(true)
	for i := range shared.Nodes {
		a, b := shared.Nodes[i], naive.Nodes[i]
		if a.Best == nil != (b.Best == nil) {
			t.Fatalf("node %s best mismatch", a.Node)
		}
		if a.Best != nil && cmplx.Abs(complex(a.Best.Value-b.Best.Value, 0)) > 1e-9 {
			t.Fatalf("node %s: %g vs %g", a.Node, a.Best.Value, b.Best.Value)
		}
	}
}

func TestSkipNodesFilter(t *testing.T) {
	opts := DefaultOptions()
	opts.SkipNodes = []string{"net066x"}
	tl, err := New(circuits.BiasCircuit(circuits.BiasDefaults()), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.Nodes {
		if n.Node == "net066x" {
			t.Error("filtered node still present")
		}
	}
}

func TestRunCorners(t *testing.T) {
	// Parameterized tank: rval controls damping.
	src := `param tank
.param rval=500
R1 t 0 {rval}
L1 t 0 25.33u
C1 t 0 1n
`
	c, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.FStart, opts.FStop = 1e4, 1e8
	res := RunCorners(context.Background(), c, opts, []Corner{
		{Name: "nom"},
		{Name: "light", Params: map[string]float64{"rval": 2000}},
		{Name: "bad", Params: map[string]float64{"nosuch": 1}},
	})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("corner errors: %v %v", res[0].Err, res[1].Err)
	}
	if res[2].Err == nil {
		t.Error("unknown design variable should fail")
	}
	// Higher R means lighter damping: deeper peak.
	w0 := WorstLoop(res[0].Report)
	w1 := WorstLoop(res[1].Report)
	if w0 == nil || w1 == nil {
		t.Fatal("missing loops")
	}
	if !(w1.WorstPeak < w0.WorstPeak) {
		t.Errorf("light corner peak %g should be deeper than nominal %g",
			w1.WorstPeak, w0.WorstPeak)
	}
	// Original circuit untouched.
	if c.Params["rval"] != 500 {
		t.Error("corner run mutated the source circuit")
	}
}

func TestRunTemps(t *testing.T) {
	// Tank with a strong positive resistor tempco: hotter -> more R ->
	// lighter damping (deeper peak).
	c := circuits.SecondOrder(0.4, 1e6)
	c.Element("r1").Params = map[string]float64{"tc1": 5e-3}
	opts := DefaultOptions()
	opts.FStart, opts.FStop = 1e4, 1e8
	res := RunTemps(context.Background(), c, opts, []float64{125, -40, 27})
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("temp %g: %v", r.Temp, r.Err)
		}
	}
	// Results sorted by temperature.
	if res[0].Temp != -40 || res[2].Temp != 125 {
		t.Fatalf("temps not sorted: %v %v %v", res[0].Temp, res[1].Temp, res[2].Temp)
	}
	cold := WorstLoop(res[0].Report)
	hot := WorstLoop(res[2].Report)
	if cold == nil || hot == nil {
		t.Fatal("missing loops")
	}
	if !(hot.WorstPeak < cold.WorstPeak) {
		t.Errorf("hot peak %g should be deeper than cold %g", hot.WorstPeak, cold.WorstPeak)
	}
}

func TestReportLoopStructure(t *testing.T) {
	tl, err := New(circuits.ResonatorField(3, 1e6, 0.3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Three independent resonators at 1, 2, 4 MHz: three loops of 2 nodes.
	if len(rep.Loops) != 3 {
		t.Fatalf("loops = %d, want 3", len(rep.Loops))
	}
	for i, l := range rep.Loops {
		want := 1e6 * math.Pow(2, float64(i))
		if !num.ApproxEqual(l.Freq, want, 0.05, 0) {
			t.Errorf("loop %d at %g, want %g", i, l.Freq, want)
		}
		if len(l.Nodes) != 2 {
			t.Errorf("loop %d has %d nodes, want 2", i, len(l.Nodes))
		}
		if !num.ApproxEqual(l.Zeta, 0.3, 0.08, 0) {
			t.Errorf("loop %d zeta = %g", i, l.Zeta)
		}
	}
}

func TestOnlySubcktScope(t *testing.T) {
	c, err := netlist.Parse(`scoped
.subckt tank t
R1 t 0 318
L1 t 0 25.33u
C1 t 0 1n
.ends
X1 a tank
X2 b tank
R9 a b 1e6
Rg a 0 1e6
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.OnlySubckt = "x1"
	tl, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Only node "a" (X1's port) is in scope; "b" is not.
	seen := map[string]bool{}
	for _, n := range rep.Nodes {
		seen[n.Node] = true
	}
	if !seen["a"] || seen["b"] {
		t.Errorf("scope wrong: %v", seen)
	}
	// The scoped run still finds X1's resonance.
	if len(rep.Loops) != 1 || !num.ApproxEqual(rep.Loops[0].Freq, 1e6, 0.05, 0) {
		t.Errorf("loops = %+v", rep.Loops)
	}
}

// TestParallelColumnsDeterministic: splitting the frequency grid across
// workers must not change a single bit of the impedance columns. The
// sparse pivot order is chosen on the values of the frequency it is
// analyzed at, so it must be pinned to the grid's first frequency rather
// than to whichever worker's chunk reaches the shared analysis first.
func TestParallelColumnsDeterministic(t *testing.T) {
	ctx := context.Background()
	columns := func(workers int) [][]complex128 {
		opts := DefaultOptions()
		opts.FStart, opts.FStop, opts.PointsPerDecade = 1e4, 1e8, 20
		opts.Workers = workers
		tl, err := New(circuits.ResonatorField(2, 1e6, 0.25), opts)
		if err != nil {
			t.Fatal(err)
		}
		op, err := tl.ensureOP(ctx)
		if err != nil {
			t.Fatal(err)
		}
		idx, _ := tl.nodeList()
		cols, err := tl.parallelColumns(ctx, tl.Grid(), op, idx)
		if err != nil {
			t.Fatal(err)
		}
		return cols
	}
	want := columns(1)
	for rep := 0; rep < 8; rep++ {
		got := columns(4)
		for i := range want {
			for k := range want[i] {
				if got[i][k] != want[i][k] {
					t.Fatalf("rep %d node %d point %d: 4 workers %v, 1 worker %v", rep, i, k, got[i][k], want[i][k])
				}
			}
		}
	}
}
