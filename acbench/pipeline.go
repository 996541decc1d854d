package main

// The two ways an in-process job runs. Untraced, through the acstab
// facade exactly as the CLI path does. Traced, composed from the layers'
// public calls with one benchmark span around each call; the program
// itself is not instrumented beyond the obs.Run counters it already
// keeps. Both produce the same report text, byte for byte.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"acstab"
	"acstab/internal/analysis"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/stab"
	"acstab/internal/tool"
	"acstab/internal/wave"
)

// peakView is the part of a stability-plot peak a single-node report
// prints; both run paths convert to it before rendering.
type peakView struct {
	Value, Freq       float64
	Kind              string
	IsZero            bool
	Zeta, PM, OverPct float64
}

// writeNodeReport renders a single-node result the way `acstab -node`
// prints it (without the plot).
func writeNodeReport(w io.Writer, node string, skipped bool, reason string, peaks []peakView, dom *peakView) {
	if skipped {
		fmt.Fprintf(w, "node %s skipped: %s\n", node, reason)
		return
	}
	fmt.Fprintf(w, "node %s: %d peak(s)\n", node, len(peaks))
	for _, p := range peaks {
		kind := "pole"
		if p.IsZero {
			kind = "zero"
		}
		fmt.Fprintf(w, "  %-4s peak %9.3f at %.4g Hz (%s)\n", kind, p.Value, p.Freq, p.Kind)
	}
	if dom != nil && !dom.IsZero {
		fmt.Fprintf(w, "dominant: peak %.3f at %.4g Hz -> zeta %.3f, phase margin %.1f deg, overshoot %.1f%%\n",
			dom.Value, dom.Freq, dom.Zeta, dom.PM, dom.OverPct)
	}
}

// runFacade is the untraced seed-cli / ladder-chain op: ParseNetlist ->
// AnalyzeAllNodesContext or AnalyzeNodeContext -> text report, with
// acstab.DefaultOptions (Workers 0 = GOMAXPROCS).
func runFacade(ctx context.Context, j *job) (string, error) {
	ckt, err := acstab.ParseNetlist(j.Netlist)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if j.Node != "" {
		nr, err := acstab.AnalyzeNodeContext(ctx, ckt, j.Node, acstab.DefaultOptions())
		if err != nil {
			return "", err
		}
		conv := func(p acstab.Peak) peakView {
			return peakView{p.Value, p.FreqHz, string(p.Kind), p.IsZero, p.Zeta, p.PhaseMarginDeg, p.OvershootPct}
		}
		var peaks []peakView
		for _, p := range nr.Peaks {
			peaks = append(peaks, conv(p))
		}
		var dom *peakView
		if nr.Dominant != nil {
			d := conv(*nr.Dominant)
			dom = &d
		}
		writeNodeReport(&buf, nr.Node, nr.Skipped, nr.SkipReason, peaks, dom)
		return buf.String(), nil
	}
	rep, err := acstab.AnalyzeAllNodesContext(ctx, ckt, acstab.DefaultOptions())
	if err != nil {
		return "", err
	}
	if err := rep.WriteText(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// composed is what a traced op reports besides its spans.
type composed struct {
	Text     string
	Unknowns int
	Points   int // frequency points swept
	Counters map[string]int64
	// StabMallocs counts heap allocations made inside stab.Analyze calls.
	StabMallocs uint64
}

// Sparse reports whether the op's AC sweep took the sparse route: only
// that route builds or reuses a symbolic analysis.
func (c *composed) Sparse() bool {
	return c.Counters["ac_symbolic_builds"]+c.Counters["ac_symbolic_reuses"] > 0
}

// driven is the |Z| below which the tool skips a node as source-driven.
const driven = 1e-9

// runComposed runs one job as the layers' public calls, the way
// tool.New/NewFromCompiled + Tool.AllNodes (or SingleNode) + report.Text
// chain them under default options, with a span per call. vars are
// design-variable overrides applied after parsing, as the farm does.
func runComposed(ctx context.Context, tr *tracer, op int, src string, vars map[string]float64, node string) (*composed, error) {
	opts := tool.DefaultOptions()
	root := tr.start(op, 0, "tool.op")
	defer tr.end(root)

	s := tr.start(op, root, "netlist.parse")
	ckt, err := netlist.Parse(src)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	for k, v := range vars {
		if _, ok := ckt.Params[k]; !ok {
			return nil, fmt.Errorf("unknown design variable %q", k)
		}
		ckt.Params[k] = v
	}
	s = tr.start(op, root, "netlist.flatten")
	flat, err := netlist.Flatten(ckt)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	flat.ZeroACSources() // tool.Options.AutoZeroAC
	s = tr.start(op, root, "mna.compile")
	sys, err := mna.Compile(flat)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	run := obs.StartRun("acbench")
	sim := analysis.New(sys).Fork()
	sim.Trace = run
	s = tr.start(op, root, "analysis.op")
	opPoint, err := sim.OP(ctx)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	freqs := num.LogGridPPD(opts.FStart, opts.FStop, opts.PointsPerDecade)
	var idx []int
	var names []string
	if node != "" {
		i, ok := sys.NodeOf(strings.ToLower(node))
		if !ok || i < 0 {
			return nil, fmt.Errorf("cannot probe node %q", node)
		}
		idx, names = []int{i}, []string{strings.ToLower(node)}
	} else {
		for i, n := range sys.NodeNames {
			idx, names = append(idx, i), append(names, n)
		}
	}
	s = tr.start(op, root, "analysis.sweep")
	var cols [][]complex128
	if node != "" {
		cols, err = sim.ImpedanceMatrixColumns(ctx, freqs, opPoint, idx)
	} else {
		cols, err = sweepColumns(ctx, sim, freqs, opPoint, idx)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}

	out := &composed{Unknowns: sys.NumUnknowns(), Points: len(freqs)}
	results := make([]tool.NodeResult, len(idx))
	var peaks []stab.NodePeak
	for i, name := range names {
		nr := &results[i]
		nr.Node = name
		mags := make([]float64, len(freqs))
		maxMag := 0.0
		for k, z := range cols[i] {
			mags[k] = math.Hypot(real(z), imag(z))
			maxMag = math.Max(maxMag, mags[k])
		}
		if maxMag < driven {
			nr.Skipped, nr.SkipReason = true, "driven node (zero driving-point impedance)"
			continue
		}
		zw := wave.NewReal("z("+name+")", append([]float64(nil), freqs...), mags)
		zw.XUnit, zw.YUnit, zw.LogX = "Hz", "Ohm", true
		nr.Impedance = zw
		m0 := heapObjects()
		s = tr.start(op, root, "stab.analyze")
		sr, err := stab.Analyze(zw, opts.Stab)
		tr.end(s)
		out.StabMallocs += heapObjects() - m0
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", name, err)
		}
		nr.Stab = sr
		for k := range sr.Peaks {
			if p := &sr.Peaks[k]; !p.IsZero && (nr.Best == nil || p.Value < nr.Best.Value) {
				nr.Best = p
			}
		}
		if nr.Best != nil {
			peaks = append(peaks, stab.NodePeak{Node: name, Peak: *nr.Best})
		}
	}

	var buf bytes.Buffer
	if node != "" {
		nr := results[0]
		var pv []peakView
		var dom *peakView
		if nr.Stab != nil {
			for _, p := range nr.Stab.Peaks {
				pv = append(pv, peakView{p.Value, p.Freq, p.Type.String(), p.IsZero, p.Zeta, p.PhaseMarginDeg, p.OvershootPct})
			}
		}
		if b := nr.Best; b != nil {
			dom = &peakView{b.Value, b.Freq, b.Type.String(), b.IsZero, b.Zeta, b.PhaseMarginDeg, b.OvershootPct}
		}
		s = tr.start(op, root, "report.render")
		writeNodeReport(&buf, nr.Node, nr.Skipped, nr.SkipReason, pv, dom)
		tr.end(s)
	} else {
		sort.Slice(results, func(a, b int) bool { return results[a].Node < results[b].Node })
		s = tr.start(op, root, "stab.cluster")
		loops := stab.ClusterLoops(peaks, opts.LoopTol)
		tr.end(s)
		rep := &tool.Report{CircuitTitle: flat.Title, Temp: flat.Temp, Options: opts, Nodes: results, Loops: loops}
		s = tr.start(op, root, "report.render")
		err = report.Text(&buf, rep)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	run.Finish()
	out.Text = buf.String()
	out.Counters = run.Trace().Counters
	return out, nil
}

// sweepColumns splits the frequency grid over GOMAXPROCS forked solvers,
// as Tool.AllNodes does with Workers = 0.
func sweepColumns(ctx context.Context, sim *analysis.Sim, freqs []float64, op *mna.OpPoint, idx []int) ([][]complex128, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(freqs) {
		workers = len(freqs)
	}
	if workers <= 1 {
		return sim.ImpedanceDiagSweep(ctx, freqs, op, idx)
	}
	cols := make([][]complex128, len(idx))
	for i := range cols {
		cols[i] = make([]complex128, len(freqs))
	}
	chunk := (len(freqs) + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(freqs))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sub, err := sim.Fork().ImpedanceDiagSweep(ctx, freqs[lo:hi], op, idx)
			if err != nil {
				errs[w] = err
				return
			}
			for i := range idx {
				copy(cols[i][lo:hi], sub[i])
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// span is one timed layer call of a traced op. Spans of one op share Op;
// Parent is the ID of the enclosing span (0 for the op's root).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a run in memory until the run ends. It is
// used from the client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(op, parent int, name string) int {
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// opSelf returns each layer's self time in the op whose spans start at
// index from (span duration minus the part its children cover) and the
// op's total. Layer names are the span names; the root's self time is the
// tool layer's own work.
func (t *tracer) opSelf(from int) (self map[string]int64, total int64) {
	self = map[string]int64{}
	for _, s := range t.spans[from:] {
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent == 0 {
			total += d
		} else {
			self[t.spans[s.Parent-1].Name] -= d
		}
	}
	return self, total
}
