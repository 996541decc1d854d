package tool

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"acstab/internal/netlist"
	"acstab/internal/num"
)

const paramTank = `param tank
.param rval=500
R1 t 0 {rval}
L1 t 0 25.33u
C1 t 0 1n
`

func TestStateRoundTrip(t *testing.T) {
	c, err := netlist.Parse(paramTank)
	if err != nil {
		t.Fatal(err)
	}
	c.Temp = 85
	opts := DefaultOptions()
	opts.FStart, opts.FStop = 1e4, 1e8
	opts.PointsPerDecade = 25
	opts.Workers = 3
	opts.SkipNodes = []string{"vdd"}

	st := CaptureState(c, opts)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}

	c2, _ := netlist.Parse(paramTank)
	opts2 := DefaultOptions()
	if err := loaded.Apply(c2, &opts2, true); err != nil {
		t.Fatal(err)
	}
	if opts2.FStart != 1e4 || opts2.FStop != 1e8 || opts2.PointsPerDecade != 25 ||
		opts2.Workers != 3 || len(opts2.SkipNodes) != 1 {
		t.Errorf("options not restored: %+v", opts2)
	}
	if c2.Temp != 85 {
		t.Errorf("temp not restored: %g", c2.Temp)
	}
	if c2.Params["rval"] != 500 {
		t.Errorf("variables not restored: %v", c2.Params)
	}
}

func TestStateVariableOverrideReevaluates(t *testing.T) {
	c, _ := netlist.Parse(paramTank)
	st := CaptureState(c, DefaultOptions())
	st.Variables["rval"] = 2000
	opts := DefaultOptions()
	if err := st.Apply(c, &opts, true); err != nil {
		t.Fatal(err)
	}
	// Flatten evaluates the element against the applied variables.
	tl, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v := tl.Flat.Element("r1").Value; v != 2000 {
		t.Errorf("element not re-evaluated: %g", v)
	}
}

func TestStateErrors(t *testing.T) {
	if _, err := LoadState(strings.NewReader("not json")); err == nil {
		t.Error("bad json should fail")
	}
	if _, err := LoadState(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version should fail")
	}
	c, _ := netlist.Parse(paramTank)
	st := CaptureState(c, DefaultOptions())
	st.Variables["bogus"] = 1
	opts := DefaultOptions()
	if err := st.Apply(c, &opts, true); err == nil {
		t.Error("unknown variable should fail")
	}
}

func TestRunParamSweep(t *testing.T) {
	c, err := netlist.Parse(paramTank)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.FStart, opts.FStop = 1e4, 1e8
	points, err := RunParamSweep(context.Background(), c, opts, "rval", []float64{2000, 500, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 || points[0].Value != 500 || points[2].Value != 2000 {
		t.Fatalf("points not sorted: %+v", points)
	}
	var peaks []float64
	for _, p := range points {
		if p.Err != nil {
			t.Fatalf("%g: %v", p.Value, p.Err)
		}
		w := WorstLoop(p.Report)
		if w == nil {
			t.Fatalf("%g: no loop", p.Value)
		}
		peaks = append(peaks, w.WorstPeak)
	}
	// Larger R -> lighter damping -> deeper peak: strictly decreasing.
	if !(peaks[0] > peaks[1] && peaks[1] > peaks[2]) {
		t.Errorf("peaks not monotone with rval: %v", peaks)
	}
	if _, err := RunParamSweep(context.Background(), c, opts, "nosuch", []float64{1}); err == nil {
		t.Error("unknown param should fail")
	}
	if c.Params["rval"] != 500 {
		t.Error("sweep mutated source circuit")
	}
}

// overrideDeck is a deck whose design variables feed an expression-valued
// resistor, a MOSFET width and a source's DC level; the defaults are
// spliced in so each override has a literal-default twin to compare with.
func overrideDeck(rval, w, vdd string) string {
	return `override deck
.param rval=` + rval + ` w=` + w + ` vdd=` + vdd + `
.model nch nmos vto=0.7 kp=100u lambda=0.04
VDD vdd 0 dc {vdd}
RD vdd d 10k
M1 d g 0 0 nch w={w} l=1u
RG1 vdd g 100k
RG2 g 0 50k
CD d 0 1p
R1 t 0 {2*rval}
L1 t 0 25.33u
C1 t 0 1n
`
}

// TestOverridesReachFlatten: netlist.Flatten alone evaluates design
// variables. Each override (an expression-valued resistor, a {w} MOSFET
// parameter, a dc {vdd} source level), applied through RunParamSweep and
// through State.Apply, reaches the flattened circuit and gives the same
// report as a deck whose .param default is the override value, while the
// caller's circuit elements stay unchanged.
func TestOverridesReachFlatten(t *testing.T) {
	ctx := context.Background()
	opts := DefaultOptions()
	opts.FStart, opts.FStop = 1e4, 1e8
	// render prints every node's |Z| samples and dominant peak plus the
	// loops: everything a report is made of.
	render := func(rep *Report) string {
		var b strings.Builder
		fmt.Fprintf(&b, "temp %g\n", rep.Temp)
		for _, n := range rep.Nodes {
			fmt.Fprintf(&b, "%s skipped=%v", n.Node, n.Skipped)
			if n.Impedance != nil {
				fmt.Fprintf(&b, " z=%v", n.Impedance.Y)
			}
			if n.Best != nil {
				fmt.Fprintf(&b, " best=%+v", *n.Best)
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "loops %+v\n", rep.Loops)
		return b.String()
	}
	// The deck's "20u" and the override must be the same float64.
	wide, err := num.ParseValue("20u")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		value float64
		deck  string // the same circuit with the override as its default
		check func(flat *netlist.Circuit) bool
	}{
		{"rval", 2000, overrideDeck("2000", "10u", "3"),
			func(f *netlist.Circuit) bool { return f.Element("r1").Value == 4000 }},
		{"w", wide, overrideDeck("500", "20u", "3"),
			func(f *netlist.Circuit) bool { return f.Element("m1").Params["w"] == wide }},
		{"vdd", 5, overrideDeck("500", "10u", "5"),
			func(f *netlist.Circuit) bool { return f.Element("vdd").Src.DC == 5 }},
	}
	nominal := func() string {
		c, err := netlist.Parse(overrideDeck("500", "10u", "3"))
		if err != nil {
			t.Fatal(err)
		}
		tl, err := New(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tl.AllNodes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return render(rep)
	}()
	for _, tc := range cases {
		lit, err := netlist.Parse(tc.deck)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := New(lit, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lt.AllNodes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if render(want) == nominal {
			t.Fatalf("%s: the override value does not change the report", tc.name)
		}

		// RunParamSweep leaves the caller's circuit untouched.
		c, err := netlist.Parse(overrideDeck("500", "10u", "3"))
		if err != nil {
			t.Fatal(err)
		}
		before := netlist.Format(c)
		pts, err := RunParamSweep(ctx, c, opts, tc.name, []float64{tc.value})
		if err != nil || pts[0].Err != nil {
			t.Fatalf("%s sweep: %v %v", tc.name, err, pts[0].Err)
		}
		if got := render(pts[0].Report); got != render(want) {
			t.Errorf("%s sweep report differs from the literal deck:\n%s\nwant\n%s", tc.name, got, render(want))
		}
		if netlist.Format(c) != before || c.Params[tc.name] == tc.value {
			t.Errorf("%s sweep mutated the caller's circuit", tc.name)
		}

		// State.Apply sets the variable; the elements keep their parsed
		// values until Flatten evaluates them.
		st := CaptureState(c, opts)
		st.Variables[tc.name] = tc.value
		sopts := opts
		if err := st.Apply(c, &sopts, true); err != nil {
			t.Fatal(err)
		}
		if netlist.Format(c) != before {
			t.Errorf("%s: State.Apply rewrote element values", tc.name)
		}
		tl, err := New(c, sopts)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.check(tl.Flat) {
			t.Errorf("%s: override did not reach the flattened circuit", tc.name)
		}
		rep, err := tl.AllNodes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(rep); got != render(want) {
			t.Errorf("%s state report differs from the literal deck:\n%s\nwant\n%s", tc.name, got, render(want))
		}
	}

	// A temperature corner reaches the report and leaves the caller's
	// temperature alone.
	c, _ := netlist.Parse(overrideDeck("500", "10u", "3"))
	res := RunTemps(ctx, c, opts, []float64{85})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Report.Temp != 85 || c.Temp != 27 {
		t.Errorf("temperature corner: report %g, caller %g", res[0].Report.Temp, c.Temp)
	}
}
