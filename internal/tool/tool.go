// Package tool orchestrates the stability analysis the way the paper's
// DFII tool does: "Single Node" and "All Nodes" run modes, auto-zeroing of
// pre-existing AC stimuli, skipped-node detection, loop clustering,
// parallel sweep execution (the "compute farm" substitute), corner and
// temperature sweep drivers, and design-variable overrides.
package tool

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"acstab/internal/acerr"
	"acstab/internal/analysis"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/stab"
	"acstab/internal/wave"
)

// Run-mode telemetry. Phase timings flow through obs.StartPhase into
// `acstab_phase_duration_seconds{phase=...}` histograms; these counters
// and the worker gauge cover the sweep volume and utilization.
var (
	mAllNodesRuns    = obs.GetCounter("acstab_allnodes_runs_total")
	mSingleNodeRuns  = obs.GetCounter("acstab_singlenode_runs_total")
	mSweepNodes      = obs.GetCounter("acstab_sweep_nodes_total")
	mSweepPoints     = obs.GetCounter("acstab_sweep_freq_points_total")
	mWorkersBusy     = obs.GetGauge("acstab_sweep_workers_busy")
	mAdaptiveRounds  = obs.GetCounter("acstab_adaptive_rounds_total")
	mAdaptiveRefined = obs.GetCounter("acstab_adaptive_refined_points_total")
)

// Options configures a stability run.
type Options struct {
	FStart, FStop   float64 // sweep range in Hz
	PointsPerDecade int
	// CoarsePointsPerDecade enables the two-level adaptive sweep: a coarse
	// uniform pass at this resolution, then recursive bisection of the
	// intervals whose stability-plot signal exceeds RefineThreshold, down
	// to RefinePointsPerDecade near detected peaks. 0 disables adaptivity
	// (every node is swept on the dense PointsPerDecade grid). Refinement
	// decisions are a pure function of each node's own samples, so sharded
	// all-nodes runs merge byte-identically regardless of partitioning.
	CoarsePointsPerDecade int
	// RefinePointsPerDecade caps the adaptive refinement resolution. 0
	// selects PointsPerDecade; values below CoarsePointsPerDecade or above
	// maxRefinePPD are rejected.
	RefinePointsPerDecade int
	// RefineThreshold is the |P| level above which an interval counts as
	// resonant and is refined. 0 selects the default (0.5, the single-
	// real-pole bound); negative is rejected.
	RefineThreshold float64
	Stab            stab.Options
	// LoopTol is the relative frequency tolerance for loop clustering.
	LoopTol float64
	// Workers sets the parallel worker count for the all-nodes sweep
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Naive forces one independent AC sweep per node (the paper's
	// original flow) instead of sharing one factorization per frequency
	// across all injection nodes. Kept for the ablation benchmark.
	Naive bool
	// AutoZeroAC disables pre-existing AC stimuli before the run
	// (default true, matching the tool's feature list).
	AutoZeroAC bool
	// SkipNodes lists node-name substrings to exclude from all-nodes runs
	// (e.g. supply rails).
	SkipNodes []string
	// OnlyNodes restricts an all-nodes run to exactly these node names
	// (case-insensitive exact match, applied after SkipNodes/OnlySubckt).
	// This is the shard coordinator's partitioning handle: a coordinator
	// plans the full node list once, then ships each worker one slice of
	// it, so the union of shard runs probes exactly the nodes one
	// unsharded run would. Empty = no restriction.
	OnlyNodes []string
	// OnlySubckt restricts the all-nodes run to the nodes of one
	// subcircuit instance (the paper's "all nodes in a circuit/
	// sub-circuit" mode): give the instance path prefix, e.g. "x1" or
	// "x1.x2". Ports shared with the parent are included.
	OnlySubckt string
	// Analysis overrides the solver options.
	Analysis *analysis.Options
	// Trace, when non-nil, collects per-phase spans and solver counters
	// for this run (acstab -stats / -trace-json, farm run traces). It is
	// excluded from serialized reports and never mutated structurally by
	// the tool, so one trace may span several Tool instances (corner and
	// temperature sweeps).
	Trace *obs.Run `json:"-"`
}

// DefaultOptions returns the defaults documented in DESIGN.md.
func DefaultOptions() Options {
	return Options{
		FStart:          1e3,
		FStop:           1e9,
		PointsPerDecade: 40,
		Stab:            stab.DefaultOptions(),
		LoopTol:         0.12,
		AutoZeroAC:      true,
	}
}

// NodeResult is the stability analysis of one node.
type NodeResult struct {
	Node string
	// Impedance is |Z| versus frequency (nil if skipped).
	Impedance *wave.Wave
	// Stab is the full stability-plot analysis (nil if skipped).
	Stab *stab.Result
	// Best is the deepest negative peak including special cases, the row
	// the all-nodes report prints; nil when the node shows no resonant
	// behaviour at all.
	Best *stab.Peak
	// Skipped marks nodes that cannot be probed (zero driving-point
	// impedance, i.e. driven by an ideal source).
	Skipped    bool
	SkipReason string
}

// Report is the outcome of an all-nodes run.
type Report struct {
	CircuitTitle string
	Temp         float64
	Options      Options
	Nodes        []NodeResult
	// Loops groups the nodes with resonant peaks by natural frequency.
	Loops []stab.Loop
}

// Tool runs stability analyses over one circuit.
type Tool struct {
	Ckt  *netlist.Circuit // original (hierarchical) circuit
	Flat *netlist.Circuit
	Sys  *mna.System
	Sim  *analysis.Sim
	Opts Options
	op   *mna.OpPoint
	// shared is the compiled artifact this Tool was built from (nil for
	// tools compiled directly by New). When set, the operating point is
	// computed once on the artifact and reused by every Tool sharing it.
	shared *Compiled
}

// New flattens and compiles the circuit and prepares the solver. The
// original circuit is not modified: auto-zeroing operates on the
// flattened copy.
func New(ckt *netlist.Circuit, opts Options) (*Tool, error) {
	opts, err := withRunDefaults(opts)
	if err != nil {
		return nil, err
	}
	c, err := Compile(ckt, opts)
	if err != nil {
		return nil, err
	}
	sim := c.base.Fork()
	sim.Trace = opts.Trace
	return &Tool{Ckt: ckt, Flat: c.Flat, Sys: c.Sys, Sim: sim, Opts: opts, shared: c}, nil
}

// ensureOP computes and caches the operating point. Tools built over a
// shared compiled artifact store the point on the artifact, so corners
// and batch variants of one circuit pay for Newton once.
func (t *Tool) ensureOP(ctx context.Context) (*mna.OpPoint, error) {
	if t.op != nil {
		return t.op, nil
	}
	if t.shared != nil {
		op, err := t.shared.ensureOP(ctx, t.Sim, t.Opts.Trace)
		if err != nil {
			return nil, err
		}
		t.op = op
		return t.op, nil
	}
	sp := obs.StartPhase(t.Opts.Trace, "op")
	op, err := t.Sim.OP(ctx)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("tool: operating point: %w", err)
	}
	t.op = op
	return t.op, nil
}

// Grid returns the frequency grid of this run.
func (t *Tool) Grid() []float64 {
	return num.LogGridPPD(t.Opts.FStart, t.Opts.FStop, t.Opts.PointsPerDecade)
}

// drivenThreshold is the |Z| below which a node counts as driven by an
// ideal source and is skipped.
const drivenThreshold = 1e-9

// SingleNode runs the "Single Node" mode: inject at the named node,
// compute the stability plot, peaks, and phase-margin estimate. A node
// the circuit does not have yields an error wrapping
// acerr.ErrUnknownNode; a canceled ctx aborts the sweep within one
// linear solve with an error wrapping acerr.ErrCanceled.
func (t *Tool) SingleNode(ctx context.Context, node string) (*NodeResult, error) {
	idx, ok := t.Sys.NodeOf(strings.ToLower(node))
	if !ok {
		return nil, fmt.Errorf("tool: %w %q", acerr.ErrUnknownNode, node)
	}
	if idx < 0 {
		return nil, fmt.Errorf("tool: cannot probe the ground node")
	}
	op, err := t.ensureOP(ctx)
	if err != nil {
		return nil, err
	}
	mSingleNodeRuns.Inc()
	if t.adaptive() {
		// The adaptive engine produces the same driving-point values the
		// full-column sweep would (the diag kernel is bitwise-identical to
		// full substitutions on the shared factorization), on a per-node
		// grid focused around this node's resonances.
		perNode, cols, aerr := t.adaptiveColumns(ctx, op, []int{idx})
		if aerr != nil {
			return nil, aerr
		}
		mSweepNodes.Inc()
		mSweepPoints.Add(int64(len(perNode[0])))
		sp := obs.StartPhase(t.Opts.Trace, "stability")
		defer sp.End()
		return t.analyzeColumn(strings.ToLower(node), perNode[0], cols[0])
	}
	freqs := t.Grid()
	sp := obs.StartPhase(t.Opts.Trace, "sweep")
	cols, err := t.Sim.ImpedanceMatrixColumns(ctx, freqs, op, []int{idx})
	sp.End()
	if err != nil {
		return nil, err
	}
	mSweepNodes.Inc()
	mSweepPoints.Add(int64(len(freqs)))
	sp = obs.StartPhase(t.Opts.Trace, "stability")
	defer sp.End()
	return t.analyzeColumn(strings.ToLower(node), freqs, cols[0])
}

// analyzeColumn converts one impedance column into a NodeResult.
func (t *Tool) analyzeColumn(node string, freqs []float64, col []complex128) (*NodeResult, error) {
	res := &NodeResult{Node: node}
	maxMag := 0.0
	mags := make([]float64, len(col))
	for i, z := range col {
		m := math.Hypot(real(z), imag(z))
		mags[i] = m
		if m > maxMag {
			maxMag = m
		}
	}
	if maxMag < drivenThreshold {
		res.Skipped = true
		res.SkipReason = "driven node (zero driving-point impedance)"
		return res, nil
	}
	zw := wave.NewReal("z("+node+")", append([]float64(nil), freqs...), mags)
	zw.XUnit = "Hz"
	zw.YUnit = "Ohm"
	zw.LogX = true
	res.Impedance = zw
	sr, err := stab.Analyze(zw, t.Opts.Stab)
	if err != nil {
		return nil, fmt.Errorf("tool: node %s: %w", node, err)
	}
	res.Stab = sr
	for i := range sr.Peaks {
		p := &sr.Peaks[i]
		if p.IsZero {
			continue
		}
		if res.Best == nil || p.Value < res.Best.Value {
			res.Best = p
		}
	}
	return res, nil
}

// nodeList returns the node indices and names included in an all-nodes
// run after applying the OnlySubckt and SkipNodes filters.
func (t *Tool) nodeList() (idx []int, names []string) {
	var scope map[string]bool
	if t.Opts.OnlySubckt != "" {
		scope = t.subcktNodes(strings.ToLower(t.Opts.OnlySubckt))
	}
	var only map[string]bool
	if len(t.Opts.OnlyNodes) > 0 {
		only = make(map[string]bool, len(t.Opts.OnlyNodes))
		for _, n := range t.Opts.OnlyNodes {
			only[strings.ToLower(n)] = true
		}
	}
	for i, name := range t.Sys.NodeNames {
		if scope != nil && !scope[name] {
			continue
		}
		if only != nil && !only[name] {
			continue
		}
		skip := false
		for _, pat := range t.Opts.SkipNodes {
			if strings.Contains(name, strings.ToLower(pat)) {
				skip = true
				break
			}
		}
		if !skip {
			idx = append(idx, i)
			names = append(names, name)
		}
	}
	return idx, names
}

// PlanNodes returns the node names an all-nodes run with this Tool's
// options would probe, in sweep order, without running anything. The
// shard coordinator calls it to partition one all-nodes run into
// node-range shards whose OnlyNodes lists union back to exactly this
// plan.
func (t *Tool) PlanNodes() []string {
	_, names := t.nodeList()
	return names
}

// subcktNodes collects every node touched by elements of the given
// subcircuit instance (flattened names carry the instance path prefix),
// including the ports it shares with its parent.
func (t *Tool) subcktNodes(prefix string) map[string]bool {
	out := map[string]bool{}
	p := prefix + "."
	for _, e := range t.Flat.Elems {
		if !strings.HasPrefix(e.Name, p) {
			continue
		}
		for _, n := range e.Nodes {
			if !netlist.IsGround(n) {
				out[n] = true
			}
		}
	}
	return out
}

// AllNodes runs the "All Nodes" mode: every non-ground node is probed and
// the results clustered into loops. The sweep shares one matrix
// factorization per frequency across all nodes and distributes frequency
// points over a worker pool unless Options.Naive is set.
//
// A canceled (or deadline-expired) ctx aborts the run within one linear
// solve: the operating-point Newton loop, every sweep worker, and the
// per-node post-processing all check the context between units of work.
// The returned error wraps acerr.ErrCanceled.
func (t *Tool) AllNodes(ctx context.Context) (*Report, error) {
	op, err := t.ensureOP(ctx)
	if err != nil {
		return nil, err
	}
	mAllNodesRuns.Inc()
	idx, names := t.nodeList()
	mSweepNodes.Add(int64(len(idx)))
	t.Opts.Trace.Add("sweep_nodes", int64(len(idx)))

	// nodeFreqs returns node i's frequency grid: per-node on the adaptive
	// path, the shared dense grid otherwise.
	var cols [][]complex128
	var nodeFreqs func(i int) []float64
	if t.adaptive() {
		var perNode [][]float64
		perNode, cols, err = t.adaptiveColumns(ctx, op, idx)
		if err != nil {
			return nil, err
		}
		var pts int64
		for _, f := range perNode {
			pts += int64(len(f))
		}
		mSweepPoints.Add(pts)
		t.Opts.Trace.Add("sweep_freq_points", pts)
		nodeFreqs = func(i int) []float64 { return perNode[i] }
	} else {
		freqs := t.Grid()
		mSweepPoints.Add(int64(len(freqs)))
		t.Opts.Trace.Add("sweep_freq_points", int64(len(freqs)))
		sp := obs.StartPhase(t.Opts.Trace, "sweep")
		if t.Opts.Naive {
			cols, err = t.naiveColumns(ctx, freqs, op, idx)
		} else {
			cols, err = t.parallelColumns(ctx, freqs, op, idx)
		}
		sp.End()
		if err != nil {
			return nil, err
		}
		nodeFreqs = func(int) []float64 { return freqs }
	}

	rep := &Report{
		CircuitTitle: t.Flat.Title,
		Temp:         t.Flat.Temp,
		Options:      t.Opts,
	}
	sp := obs.StartPhase(t.Opts.Trace, "stability")
	var peaks []stab.NodePeak
	for i, name := range names {
		if err := acerr.Ctx(ctx); err != nil {
			sp.End()
			return nil, err
		}
		nr, err := t.analyzeColumn(name, nodeFreqs(i), cols[i])
		if err != nil {
			sp.End()
			return nil, err
		}
		rep.Nodes = append(rep.Nodes, *nr)
		if !nr.Skipped && nr.Best != nil {
			peaks = append(peaks, stab.NodePeak{Node: name, Peak: *nr.Best})
		}
	}
	sort.Slice(rep.Nodes, func(a, b int) bool { return rep.Nodes[a].Node < rep.Nodes[b].Node })
	sp.End()
	sp = obs.StartPhase(t.Opts.Trace, "loop_clustering")
	rep.Loops = stab.ClusterLoops(peaks, t.Opts.LoopTol)
	sp.End()
	t.Opts.Trace.Add("peaks", int64(len(peaks)))
	t.Opts.Trace.Add("loops", int64(len(rep.Loops)))
	return rep, nil
}

// parallelColumns computes impedance columns with frequency points
// distributed across workers; within each frequency one factorization
// serves every injection node. The first worker failure cancels the
// remaining workers so a dying run releases its CPUs promptly.
func (t *Tool) parallelColumns(ctx context.Context, freqs []float64, op *mna.OpPoint, idx []int) ([][]complex128, error) {
	workers := t.Opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(freqs) {
		workers = len(freqs)
	}
	cols := make([][]complex128, len(idx))
	for i := range cols {
		cols[i] = make([]complex128, len(freqs))
	}
	if workers <= 1 {
		mWorkersBusy.Inc()
		got, err := t.Sim.ImpedanceDiagSweep(ctx, freqs, op, idx)
		mWorkersBusy.Dec()
		if err != nil {
			return nil, err
		}
		return got, nil
	}
	// Fix the pivot order at the grid's first frequency before the
	// workers race to build it at their own chunk's.
	t.Sim.PrepareAC(2*math.Pi*freqs[0], op)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	chunk := (len(freqs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(freqs) {
			hi = len(freqs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mWorkersBusy.Inc()
			defer mWorkersBusy.Dec()
			// Each worker needs its own Sim wrapper: the impedance sweep
			// owns per-sweep numeric workspaces, and the shared System is
			// read-only during AC stamping. Fork shares the symbolic
			// analysis cache — and with it the diag-kernel reach sets — so
			// the pivot order, fill pattern, and plan are computed once and
			// reused read-only by every worker. The trace is shared:
			// obs.Run is concurrency-safe. Only driving-point entries are
			// consumed here, so the diagonal sweep applies.
			sim := t.Sim.Fork()
			sub, err := sim.ImpedanceDiagSweep(ctx, freqs[lo:hi], op, idx)
			if err != nil {
				errCh <- err
				cancel()
				return
			}
			for i := range idx {
				copy(cols[i][lo:hi], sub[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errCh)
	// Report the root cause: a real solver failure beats the secondary
	// cancellation errors it induced in sibling workers.
	var firstErr error
	for err := range errCh {
		if firstErr == nil || (errors.Is(firstErr, acerr.ErrCanceled) && !errors.Is(err, acerr.ErrCanceled)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return cols, nil
}

// naiveColumns mimics the paper's original flow: one complete AC sweep per
// node, each refactoring the matrix at every frequency. The single worker
// toggles the busy gauge just like the parallel path, so -naive runs
// report their activity in /statusz instead of a constant zero.
func (t *Tool) naiveColumns(ctx context.Context, freqs []float64, op *mna.OpPoint, idx []int) ([][]complex128, error) {
	mWorkersBusy.Inc()
	defer mWorkersBusy.Dec()
	cols := make([][]complex128, len(idx))
	for i, nodeIdx := range idx {
		got, err := t.Sim.ImpedanceDiagSweep(ctx, freqs, op, []int{nodeIdx})
		if err != nil {
			return nil, err
		}
		cols[i] = got[0]
	}
	return cols, nil
}
