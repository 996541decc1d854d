package main

// The answer oracle: every report an op returns is parsed back from its
// text and checked against what the generator knows about the circuit.
// A wrong answer counts as a failed op.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"acstab/internal/sos"
)

// Oracle tolerances for generated fields, set by the 40 points/decade
// grid: a loop's natural frequency within half a grid step, its damping
// ratio within 5% (the sampled peak depth of a zeta=0.15 resonance sits
// about 2.5% off the closed form, heavier damping closer).
var (
	fieldFreqTol = math.Pow(10, 1/(2.0*sweepPPD)) - 1
	fieldZetaTol = 0.05
)

// Table 1 tolerances as pinned by TestTable1 (index relative, overshoot
// in percentage points, phase margin in degrees), plus the tank's
// natural frequency within one grid step.
const (
	table1IndexTol = 0.07
	table1OSTol    = 3
	table1PMTol    = 4
)

var table1FreqTol = math.Pow(10, 1/float64(sweepPPD)) - 1

// reportRow is one node row of an all-nodes text report.
type reportRow struct {
	Node string
	Peak float64 // |peak|; NaN for "-"
	Freq float64 // Hz; NaN for "-"
	Loop int     // index into parsedReport.Loops, -1 outside any loop
}

// reportLoop is one "Loop at ..." block.
type reportLoop struct {
	FreqHz float64
	Rows   []reportRow
}

type parsedReport struct {
	Loops []reportLoop
	Rows  map[string]reportRow
}

// parseAllNodes reads back the report.Text layout.
func parseAllNodes(text string) (*parsedReport, error) {
	lines := strings.Split(text, "\n")
	body := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "-----") {
			body = i + 1
			break
		}
	}
	if !strings.HasPrefix(text, "AC-Stability All-Nodes Report\n") || body < 0 {
		return nil, fmt.Errorf("not an all-nodes report")
	}
	rep := &parsedReport{Rows: map[string]reportRow{}}
	loop := -1
	for _, l := range lines[body:] {
		switch {
		case l == "":
			continue
		case strings.HasPrefix(l, "Loop at "):
			f, err := parseHeaderHz(l)
			if err != nil {
				return nil, err
			}
			rep.Loops = append(rep.Loops, reportLoop{FreqHz: f})
			loop = len(rep.Loops) - 1
			continue
		case l == "Nodes without resonant peaks":
			loop = -1
			continue
		}
		f := strings.Fields(l)
		if len(f) < 3 {
			return nil, fmt.Errorf("malformed row %q", l)
		}
		r := reportRow{Node: f[0], Loop: loop}
		var err error
		if r.Peak, err = parseCell(f[1]); err != nil {
			return nil, fmt.Errorf("row %q: %v", l, err)
		}
		if r.Freq, err = parseCell(f[2]); err != nil {
			return nil, fmt.Errorf("row %q: %v", l, err)
		}
		if _, dup := rep.Rows[r.Node]; dup {
			return nil, fmt.Errorf("node %s reported twice", r.Node)
		}
		rep.Rows[r.Node] = r
		if loop >= 0 {
			rep.Loops[loop].Rows = append(rep.Loops[loop].Rows, r)
		}
	}
	return rep, nil
}

func parseCell(s string) (float64, error) {
	if s == "-" {
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseHeaderHz reads "Loop at 2.92 MHz   (zeta ...".
func parseHeaderHz(l string) (float64, error) {
	f := strings.Fields(strings.TrimPrefix(l, "Loop at "))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed loop header %q", l)
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0, fmt.Errorf("loop header %q: %v", l, err)
	}
	scale := map[string]float64{"Hz": 1, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}[f[1]]
	if scale == 0 {
		return 0, fmt.Errorf("loop header %q: unknown unit", l)
	}
	return v * scale, nil
}

// worstPeak is the deepest |peak| among a loop's rows.
func (l reportLoop) worstPeak() float64 {
	w := 0.0
	for _, r := range l.Rows {
		if r.Peak > w {
			w = r.Peak
		}
	}
	return w
}

// checkReport judges one job's report. fscale is the corner scale of a
// field variant (1 for everything else).
func checkReport(j *job, text string, fscale float64) error {
	if j.Node != "" {
		return checkSingleNode(j, text)
	}
	rep, err := parseAllNodes(text)
	if err != nil {
		return err
	}
	if len(rep.Rows) != j.Nodes {
		return fmt.Errorf("%d node rows, want %d", len(rep.Rows), j.Nodes)
	}
	switch j.Kind {
	case kindPinned:
		return checkPinned(j, rep)
	case kindField:
		return checkField(j, rep, fscale)
	case kindLadder:
		// RC networks have only real poles: no node may show a peak
		// deeper than the zeta = 1 bound, so no loop has zeta < 1.
		for _, r := range rep.Rows {
			if r.Peak > 1 {
				return fmt.Errorf("ladder node %s shows a resonance (|peak| %g)", r.Node, r.Peak)
			}
		}
		return nil
	}
	return fmt.Errorf("no oracle for job kind %d", j.Kind)
}

func checkPinned(j *job, rep *parsedReport) error {
	for _, p := range j.Rows {
		r, ok := rep.Rows[p.Node]
		if !ok || math.IsNaN(r.Peak) {
			return fmt.Errorf("node %s: no peak reported", p.Node)
		}
		if p.PeakHi > 0 {
			if r.Peak < p.PeakLo || r.Peak > p.PeakHi {
				return fmt.Errorf("node %s: |peak| %g outside [%g, %g]", p.Node, r.Peak, p.PeakLo, p.PeakHi)
			}
		} else if math.Abs(r.Peak-p.Peak) > p.PeakTol {
			return fmt.Errorf("node %s: |peak| %g, want %g±%g", p.Node, r.Peak, p.Peak, p.PeakTol)
		}
		if p.FreqHi > 0 {
			if r.Freq < p.FreqLo || r.Freq > p.FreqHi {
				return fmt.Errorf("node %s: frequency %g outside [%g, %g]", p.Node, r.Freq, p.FreqLo, p.FreqHi)
			}
		} else if math.Abs(r.Freq-p.Freq) > p.FreqTol*p.Freq {
			return fmt.Errorf("node %s: frequency %g, want %g±%g%%", p.Node, r.Freq, p.Freq, 100*p.FreqTol)
		}
	}
	if j.MainLoopBelowHz > 0 {
		worst := -1
		for i, l := range rep.Loops {
			if worst < 0 || l.worstPeak() > rep.Loops[worst].worstPeak() {
				worst = i
			}
		}
		if worst < 0 || rep.Loops[worst].FreqHz >= j.MainLoopBelowHz {
			return fmt.Errorf("worst loop is not the main loop below %g Hz", j.MainLoopBelowHz)
		}
	}
	return nil
}

// checkField requires the loops with zeta < 1 (|peak| > 1) to be exactly
// the generator's in-range resonators, each at its natural frequency and
// damping ratio. Nodes with shallower peaks may join a loop (single-
// linkage clustering lists participating nodes), but no node of another
// resonator may.
func checkField(j *job, rep *parsedReport, fscale float64) error {
	owner := map[string]int{} // node -> resonator index
	want := 0
	for i, r := range j.Loops {
		owner["ra"+r.Tag], owner["rb"+r.Tag] = i, i
		if r.inRange(fscale) {
			want++
		}
	}
	got := 0
	for li, l := range rep.Loops {
		worst := l.worstPeak()
		if worst <= 1 {
			continue
		}
		got++
		res := -1
		for _, row := range l.Rows {
			if row.Peak <= 1 {
				continue
			}
			i, ok := owner[row.Node]
			if !ok || (res >= 0 && i != res) {
				return fmt.Errorf("loop at %g Hz mixes resonances (node %s)", l.FreqHz, row.Node)
			}
			res = i
		}
		r := j.Loops[res]
		if !r.inRange(fscale) {
			return fmt.Errorf("loop at %g Hz from out-of-range resonator %s", l.FreqHz, r.Tag)
		}
		for _, n := range []string{"ra" + r.Tag, "rb" + r.Tag} {
			if row, ok := rep.Rows[n]; !ok || row.Loop != li {
				return fmt.Errorf("resonator %s: node %s missing from its loop", r.Tag, n)
			}
		}
		fn := r.Fn * fscale
		if math.Abs(l.FreqHz-fn) > fieldFreqTol*fn {
			return fmt.Errorf("resonator %s: loop at %g Hz, want %g Hz", r.Tag, l.FreqHz, fn)
		}
		if z := sos.ZetaFromIndex(-worst); math.Abs(z-r.Zeta) > fieldZetaTol*r.Zeta {
			return fmt.Errorf("resonator %s: zeta %g, want %g", r.Tag, z, r.Zeta)
		}
	}
	if got != want {
		return fmt.Errorf("%d loops with zeta < 1, want %d in-range resonators", got, want)
	}
	return nil
}

// checkSingleNode judges a Table 1 tank's single-node report against the
// closed-form second-order relationships.
func checkSingleNode(j *job, text string) error {
	var idx, freq, zeta, pm, os float64
	ok := false
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "dominant: ") {
			_, err := fmt.Sscanf(l, "dominant: peak %g at %g Hz -> zeta %g, phase margin %g deg, overshoot %g%%",
				&idx, &freq, &zeta, &pm, &os)
			if err != nil {
				return fmt.Errorf("malformed dominant line %q: %v", l, err)
			}
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("node %s: no dominant peak", j.Node)
	}
	if want := sos.PerformanceIndex(j.Zeta); math.Abs(idx-want) > table1IndexTol*math.Abs(want) {
		return fmt.Errorf("index %g, want %g (zeta %g)", idx, want, j.Zeta)
	}
	if want := sos.Overshoot(j.Zeta); math.Abs(os-want) > table1OSTol {
		return fmt.Errorf("overshoot %g%%, want %g%%", os, want)
	}
	if want := sos.PhaseMargin(j.Zeta); math.Abs(pm-want) > table1PMTol {
		return fmt.Errorf("phase margin %g, want %g", pm, want)
	}
	if math.Abs(freq-j.Fn) > table1FreqTol*j.Fn {
		return fmt.Errorf("natural frequency %g Hz, want %g Hz", freq, j.Fn)
	}
	return nil
}
