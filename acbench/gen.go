package main

// Seeded input generation. Every netlist a run feeds the program comes
// from here, and depends only on the workload seed: one seed always gives
// byte-identical netlists, another seed gives a hold-out set of the same
// shape.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"acstab/internal/circuits"
	"acstab/internal/netlist"
)

// The sweep every workload runs is the program's default
// (acstab.DefaultOptions, farm RequestOptions zero values).
const (
	sweepStart = 1e3
	sweepStop  = 1e9
	sweepPPD   = 40
)

// jobKind selects the oracle that judges a job's report.
type jobKind int

const (
	kindTable1 jobKind = iota // single-node second-order tank (paper Table 1)
	kindPinned                // paper circuits with pinned node rows (Table 2, transistor tests)
	kindField                 // resonator field with known loops
	kindLadder                // RC ladder: real poles only
)

// job is one netlist-to-report input plus what a correct report says.
type job struct {
	Name    string
	Netlist string
	Kind    jobKind
	// Node is the probed node of a single-node job ("" = all nodes).
	Node string
	// Zeta and Fn are the tank's damping ratio and natural frequency
	// (kindTable1).
	Zeta, Fn float64
	// Rows are pinned node rows (kindPinned).
	Rows []pinnedRow
	// MainLoopBelowHz, when positive, requires the loop holding the
	// deepest peak to sit below this frequency (Table 2 full circuit).
	MainLoopBelowHz float64
	// Loops are the generated resonators (kindField).
	Loops []resonator
	// Nodes is the number of node rows a complete report has.
	Nodes int
}

// pinnedRow bounds one node's dominant peak: |peak| within PeakTol of
// Peak (or inside [PeakLo, PeakHi] when PeakHi > 0) and frequency within
// FreqTol of Freq (or inside [FreqLo, FreqHi] when FreqHi > 0).
type pinnedRow struct {
	Node           string
	Peak, PeakTol  float64
	Freq, FreqTol  float64
	PeakLo, PeakHi float64
	FreqLo, FreqHi float64
}

// resonator is one two-pole gm loop of a generated field, visible at
// nodes "ra"+Tag and "rb"+Tag. Fn is its natural frequency at fscale=1;
// the .param fscale scales it linearly.
type resonator struct {
	Tag  string
	Fn   float64
	Zeta float64
}

// inRange reports whether the resonator, scaled by fscale, lies inside
// the sweep with room for a full stability-plot peak. The generator
// places every resonator either at least 6x inside or at least 3x outside
// the sweep edges across all corner scales, so this split is unambiguous.
func (r resonator) inRange(fscale float64) bool {
	f := r.Fn * fscale
	return f > sweepStart && f < sweepStop
}

// Table 2 rows as pinned by the repository's TestTable2: |peak| and
// natural frequency per node with the same absolute peak and relative
// frequency tolerances.
var table2Rows = []pinnedRow{
	{Node: "output", Peak: 28.88, PeakTol: 4, Freq: 3.16e6, FreqTol: 0.09},
	{Node: "net052", Peak: 28.88, PeakTol: 4, Freq: 3.16e6, FreqTol: 0.09},
	{Node: "net136", Peak: 28.88, PeakTol: 4, Freq: 3.16e6, FreqTol: 0.09},
	{Node: "net138", Peak: 27.52, PeakTol: 4, Freq: 3.16e6, FreqTol: 0.09},
	{Node: "net99", Peak: 27.09, PeakTol: 4, Freq: 3.31e6, FreqTol: 0.14},
	{Node: "net066", Peak: 0.948, PeakTol: 0.4, Freq: 3.63e7, FreqTol: 0.05},
	{Node: "net81", Peak: 5.334, PeakTol: 1.2, Freq: 4.79e7, FreqTol: 0.05},
	{Node: "net17", Peak: 0.504, PeakTol: 0.6, Freq: 4.68e7, FreqTol: 0.15},
	{Node: "net056", Peak: 4.608, PeakTol: 1.2, Freq: 4.79e7, FreqTol: 0.05},
	{Node: "net013", Peak: 5.063, PeakTol: 1.2, Freq: 4.90e7, FreqTol: 0.06},
	{Node: "net57", Peak: 4.485, PeakTol: 2.6, Freq: 5.01e7, FreqTol: 0.12},
	{Node: "net16", Peak: 0.252, PeakTol: 0.8, Freq: 5.01e7, FreqTol: 0.15},
	{Node: "net75", Peak: 5.073, PeakTol: 1.2, Freq: 4.90e7, FreqTol: 0.06},
	{Node: "net019", Peak: 0.233, PeakTol: 0.8, Freq: 5.13e7, FreqTol: 0.35},
}

// opAmpNodes are the Table 2 rows of the op-amp buffer; the rest belong
// to the bias cell. The full circuit keeps the two electrically separate,
// so each part alone shows the same per-node signatures.
var opAmpNodes = map[string]bool{"output": true, "net052": true, "net136": true, "net138": true, "net99": true}

func table2Subset(opAmp bool) []pinnedRow {
	var out []pinnedRow
	for _, r := range table2Rows {
		if opAmpNodes[r.Node] == opAmp {
			out = append(out, r)
		}
	}
	return out
}

// circuitText renders a built circuit as netlist text, keeping the
// .nodeset initial guesses netlist.Format leaves out.
func circuitText(c *netlist.Circuit) string {
	src := strings.TrimSuffix(netlist.Format(c), ".end\n")
	if len(c.NodeSet) > 0 {
		names := make([]string, 0, len(c.NodeSet))
		for n := range c.NodeSet {
			names = append(names, n)
		}
		sort.Strings(names)
		src += ".nodeset"
		for _, n := range names {
			src += fmt.Sprintf(" v(%s)=%g", n, c.NodeSet[n])
		}
		src += "\n"
	}
	return src + ".end\n"
}

func nodeCount(c *netlist.Circuit) int {
	flat, err := netlist.Flatten(c)
	if err != nil {
		panic(err) // the built-in circuits always flatten
	}
	return len(flat.Nodes())
}

// table1Job draws a second-order tank with a seeded damping ratio and
// natural frequency well inside the sweep.
func table1Job(rng *rand.Rand, name string) job {
	zeta := 0.15 + 0.7*rng.Float64()
	fn := math.Pow(10, 4+4*rng.Float64())
	c := circuits.SecondOrder(zeta, fn)
	c.Title = fmt.Sprintf("second-order tank zeta=%.4f fn=%.6g", zeta, fn)
	return job{Name: name, Netlist: circuitText(c), Kind: kindTable1, Node: "t", Zeta: zeta, Fn: fn, Nodes: 1}
}

// seedJobs returns the seed-cli cycle: the paper's circuits in a seeded
// order. Two Table 1 tanks make the cycle seven jobs long, so neither the
// median nor the 90th percentile of a run's op times falls on the
// boundary between two circuits' cost clusters.
func seedJobs(seed int64) []job {
	rng := rand.New(rand.NewSource(seed))
	full := circuits.FullCircuit()
	opamp := circuits.OpAmpBuffer(circuits.OpAmpDefaults())
	bias := circuits.BiasCircuit(circuits.BiasDefaults())
	tOpAmp := circuits.TransistorOpAmp()
	tBias := circuits.TransistorBias()
	jobs := []job{
		table1Job(rng, "table1-a"),
		table1Job(rng, "table1-b"),
		{Name: "opamp-buffer", Netlist: circuitText(opamp), Kind: kindPinned,
			Rows: table2Subset(true), Nodes: nodeCount(opamp)},
		{Name: "bias-cell", Netlist: circuitText(bias), Kind: kindPinned,
			Rows: table2Subset(false), Nodes: nodeCount(bias)},
		{Name: "table2-full", Netlist: circuitText(full), Kind: kindPinned,
			Rows: table2Rows, MainLoopBelowHz: 4e6, Nodes: nodeCount(full)},
		// Bands pinned by TestTransistorOpAmpStabilityPeak and
		// TestTransistorBiasLocalLoop.
		{Name: "transistor-opamp", Netlist: circuitText(tOpAmp), Kind: kindPinned,
			Rows:  []pinnedRow{{Node: "vout", PeakLo: 10, PeakHi: 60, FreqLo: 1e7, FreqHi: 2e8}},
			Nodes: nodeCount(tOpAmp)},
		{Name: "transistor-bias", Netlist: circuitText(tBias), Kind: kindPinned,
			Rows: []pinnedRow{
				{Node: "x", PeakLo: 2.5, PeakHi: 9, FreqLo: 10e6, FreqHi: 150e6},
				{Node: "nb", PeakLo: 2.5, PeakHi: 9, FreqLo: 10e6, FreqHi: 150e6},
			},
			Nodes: nodeCount(tBias)},
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// stratified returns count values spread over [lo, hi]: one uniform draw
// inside each of count equal strata, in seeded order. Every seed covers
// the whole range evenly, so run-level medians move little between seeds
// while each input is still random.
func stratified(rng *rand.Rand, count int, lo, hi float64) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = lo + (hi-lo)*(float64(i)+rng.Float64())/float64(count)
	}
	rng.Shuffle(count, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Field corner scales: batch variants override fscale with these values.
// Generated resonators stay clear of the sweep edges across all of them.
var fieldCorners = []float64{1, 0.8, 1.25}

// fieldJob builds a resonator field of k two-pole loops. Most loops sit
// inside the sweep on a jittered geometric ladder starting at a random
// f0, each with its own random damping ratio; about one in eight are
// parasitic loops far above the sweep, which a correct report must not
// list as loops. Capacitors are written as {C/fscale}, so an fscale
// override is a real design-variable corner.
func fieldJob(rng *rand.Rand, name string, k int) job {
	out := k / 8
	if out < 1 {
		out = 1
	}
	in := k - out
	// In-range loops span [f0, 125 MHz]: 6x inside the sweep even at the
	// 0.8 and 1.25 corners. Consecutive loops are at least 1.18x apart,
	// beyond the 12% loop-clustering tolerance.
	f0 := 8e3 * math.Pow(2.5, rng.Float64())
	step := math.Log(125e6/f0) / float64(in)
	var loops []resonator
	for i := 0; i < in; i++ {
		fn := f0 * math.Exp(step*(float64(i)+0.4+0.2*rng.Float64()))
		loops = append(loops, resonator{Fn: fn, Zeta: 0.15 + 0.3*rng.Float64()})
	}
	for i := 0; i < out; i++ {
		// 4-40 GHz: over 3x above the sweep at the 0.8 corner.
		fn := 4e9 * math.Pow(10, rng.Float64())
		loops = append(loops, resonator{Fn: fn, Zeta: 0.15 + 0.3*rng.Float64()})
	}
	rng.Shuffle(len(loops), func(i, j int) { loops[i], loops[j] = loops[j], loops[i] })

	var sb strings.Builder
	fmt.Fprintf(&sb, "resonator field %s (%d loops)\n.param fscale=1\n", name, k)
	for i := range loops {
		r := &loops[i]
		r.Tag = fmt.Sprintf("%03d", i)
		// Same topology as circuits.ResonatorField: equal R/C at both
		// nodes, forward and reverse transconductors of opposite sign.
		// Closed-loop poles: (1+sRC)^2 + (gm R)^2 = 0.
		kk := 1/(r.Zeta*r.Zeta) - 1
		const res = 10e3
		capF := math.Sqrt(1+kk) / (2 * math.Pi * r.Fn) / res
		gm := math.Sqrt(kk) / res
		t := r.Tag
		fmt.Fprintf(&sb, "ra%s ra%s 0 %g\n", t, t, res)
		fmt.Fprintf(&sb, "ca%s ra%s 0 {%.9g/fscale}\n", t, t, capF)
		fmt.Fprintf(&sb, "rb%s rb%s 0 %g\n", t, t, res)
		fmt.Fprintf(&sb, "cb%s rb%s 0 {%.9g/fscale}\n", t, t, capF)
		fmt.Fprintf(&sb, "gf%s 0 rb%s ra%s 0 %.9g\n", t, t, t, gm)
		fmt.Fprintf(&sb, "gr%s ra%s 0 rb%s 0 %.9g\n", t, t, t, gm)
	}
	sb.WriteString(".end\n")
	return job{Name: name, Netlist: sb.String(), Kind: kindField, Loops: loops, Nodes: 2 * k}
}

// Field loop counts span 12-48: fields up to denseFieldLoops loops (64
// unknowns) take the dense AC route under the default SparseThreshold,
// larger ones the sparse route.
const (
	minFieldLoops   = 12
	denseFieldLoops = 32
	maxFieldLoops   = 48
)

// midpoints returns the centres of count equal strata of [lo, hi].
func midpoints(count int, lo, hi float64) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = lo + (hi-lo)*(float64(i)+0.5)/float64(count)
	}
	return out
}

// fieldPool returns one field per loop count in ks (truncated to whole
// loops).
func fieldPool(rng *rand.Rand, prefix string, ks []float64) []job {
	out := make([]job, len(ks))
	for i, k := range ks {
		out[i] = fieldJob(rng, fmt.Sprintf("%s-%02d", prefix, i), int(k))
	}
	return out
}

// ladderJob renders circuits.RCLadder(n).
func ladderJob(n int) job {
	return job{Name: fmt.Sprintf("ladder-%d", n), Netlist: circuitText(circuits.RCLadder(n)),
		Kind: kindLadder, Nodes: n + 1}
}

// Ladder lengths span about 80-200 stages.
const minLadder, maxLadder = 80, 200

// ladderPool returns count ladders with stratified lengths.
func ladderPool(rng *rand.Rand, count int) []job {
	ns := stratified(rng, count, minLadder, maxLadder+1)
	out := make([]job, count)
	for i, n := range ns {
		out[i] = ladderJob(int(n))
	}
	return out
}
