// Package analysis implements the circuit analyses the tool depends on:
// DC operating point (Newton-Raphson with step damping, gmin stepping, and
// source stepping homotopies), DC and temperature sweeps, small-signal AC
// sweeps (with a shared-factorization multi-node fast path used by the
// all-nodes stability run), and transient simulation (trapezoidal or
// backward-Euler companion integration). It is the Spectre substitute the
// reproduction runs on.
package analysis

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"acstab/internal/acerr"
	"acstab/internal/linalg"
	"acstab/internal/mna"
	"acstab/internal/obs"
	"acstab/internal/sparse"
	"acstab/internal/wave"
)

// Solver counters. Increments happen at solve granularity (one atomic add
// per sweep or Newton solve, never per matrix entry), so the
// instrumentation cost is invisible next to a factorization.
var (
	mACFactorizations = obs.GetCounter("acstab_ac_factorizations_total")
	mACSolves         = obs.GetCounter("acstab_ac_solves_total")
	mNewtonIterations = obs.GetCounter("acstab_newton_iterations_total")
	mOPSolves         = obs.GetCounter("acstab_op_solves_total")
	// Two-phase sparse solver telemetry: how often the per-frequency hot
	// path got away with a pivot-free numeric refactorization, how often
	// the symbolic analysis was built versus reused across workers, and
	// how often the guards bounced a sweep back to a full factorization.
	mACRefactorizations  = obs.GetCounter("acstab_ac_refactorizations_total")
	mACSymbolicBuilds    = obs.GetCounter("acstab_ac_symbolic_builds_total")
	mACSymbolicReuses    = obs.GetCounter("acstab_ac_symbolic_reuses_total")
	mACRefactorFallbacks = obs.GetCounter("acstab_ac_refactor_fallbacks_total")
	mACPatternDrift      = obs.GetCounter("acstab_ac_pattern_drift_total")
	// Diagonal-extraction kernel telemetry: batched reach-restricted
	// Z_kk solves taken, rows those solves actually visited (compare
	// against 2·n·nodes·solves for the reach-restriction win), and
	// frequencies that had to fall back to full per-node substitutions.
	mACDiagSolves    = obs.GetCounter("acstab_ac_diag_solves_total")
	mACDiagRows      = obs.GetCounter("acstab_ac_diag_rows_visited_total")
	mACDiagFallbacks = obs.GetCounter("acstab_ac_diag_fallbacks_total")
	// Frequency-batched refactorization: blocks refilled through the
	// K-lane NumericBatch and the frequencies (lanes) those blocks carried.
	// lanes/blocks is the realized batch width — partial tail blocks and
	// serial fallbacks pull it below the configured K.
	mACBatchBlocks = obs.GetCounter("acstab_ac_batch_blocks_total")
	mACBatchLanes  = obs.GetCounter("acstab_ac_batch_lanes_total")
	// Numerical-health observatory: per-point scale-relative residuals and
	// pivot-growth factors land in log-scale histograms (the default obs
	// buckets are duration-oriented, so these carry explicit decade
	// bounds), refinement/breach volume in counters. All of it federates
	// exactly across the fleet — counters sum, histogram buckets merge.
	mACResidual         = obs.Default.HistogramBuckets("acstab_ac_residual", decadeBounds(-18, 0))
	mACPivotGrowth      = obs.Default.HistogramBuckets("acstab_ac_pivot_growth", decadeBounds(-2, 12))
	mACCondEst          = obs.Default.HistogramBuckets("acstab_ac_cond_estimate", decadeBounds(0, 18))
	mACRefinements      = obs.GetCounter("acstab_ac_refinements_total")
	mACResidualBreaches = obs.GetCounter("acstab_ac_residual_breaches_total")
)

// decadeBounds returns per-decade log-scale histogram upper bounds
// 10^lo .. 10^hi inclusive.
func decadeBounds(lo, hi int) []float64 {
	b := make([]float64, 0, hi-lo+1)
	for d := lo; d <= hi; d++ {
		b = append(b, math.Pow(10, float64(d)))
	}
	return b
}

// Numerics defaults: a healthy double-precision solve sits near 1e-15
// scale-relative, so a 1e-9 threshold (matching the CI accuracy gate and
// the solver property tests) never triggers refinement on a well-behaved
// sweep — the observatory is pure telemetry until something actually
// degrades. The diag-kernel probe stride keeps the full-solve residual
// probe under the <5% sweep-overhead budget.
const (
	defResidualThreshold  = 1e-9
	defResidualProbeEvery = 16
	defCondSamples        = 2
	// defFreqBatch is the default diag-sweep refill block width. Eight
	// lanes amortize the symbolic index-array streaming (the refill's
	// memory traffic is dominated by lptr/lsrc/uptr/ucol, read once per
	// block instead of once per frequency) without outgrowing L2 on the
	// value arrays; maxFreqBatch caps explicit requests before the SoA
	// block stops fitting cache and the win inverts.
	defFreqBatch = 8
	maxFreqBatch = 32
)

// Options tunes the solvers.
type Options struct {
	AbsTol  float64 // branch-current tolerance (A)
	VnTol   float64 // node-voltage tolerance (V)
	RelTol  float64 // relative tolerance
	Gmin    float64 // junction shunt conductance
	MaxIter int     // Newton iteration limit per solve
	// MaxStepV damps Newton: no node voltage moves more than this per
	// iteration.
	MaxStepV float64
	// ResidualThreshold is the scale-relative backward-error level
	// ‖A·x−b‖∞/(‖A‖∞‖x‖∞+‖b‖∞) above which a frequency point triggers the
	// refinement escalation ladder. 0 selects the built-in default (1e-9);
	// a negative value disables the numerical-health observatory entirely
	// (no residual SpMV, no refinement, no telemetry).
	ResidualThreshold float64
	// ResidualProbeEvery is the diag-kernel probe stride: every Nth
	// frequency point of a diagonal-only sweep runs one full solve so its
	// residual can be measured (the batched kernel produces only Z_kk and
	// has no full solution vector to verify). 0 selects the default (16);
	// negative disables probing.
	ResidualProbeEvery int
	// CondSamples is how many Hager/Higham 1-norm condition estimates to
	// take per sweep, evenly spaced. 0 selects the default (2); negative
	// disables condition sampling.
	CondSamples int
	// FreqBatch is the number of frequency points whose sparse
	// refactorizations are refilled together in one pass over the frozen
	// elimination pattern (diagonal sweeps only). Per lane the batched
	// refill is bitwise identical to the serial one, so this is a pure
	// throughput knob. 0 selects the default (8); 1 or any negative value
	// forces the serial per-frequency path; values above 32 are clamped.
	FreqBatch int
}

// DefaultOptions returns the solver defaults documented in DESIGN.md.
func DefaultOptions() Options {
	return Options{
		AbsTol:   1e-12,
		VnTol:    1e-9,
		RelTol:   1e-6,
		Gmin:     1e-12,
		MaxIter:  200,
		MaxStepV: 1.0,
	}
}

// Sim couples a compiled system with solver options.
type Sim struct {
	Sys *mna.System
	Opt Options
	// Trace, when non-nil, accumulates solver counters (factorizations,
	// solves, Newton iterations) for the run-level trace in addition to
	// the process-wide obs registry.
	Trace *obs.Run

	// ac caches the AC matrix's stamp pattern and symbolic factorization
	// analysis, which depend only on the compiled system's structure and
	// so are computed once per Sim and shared read-only by every Fork.
	ac     *acShared
	acInit sync.Once

	// ws caches this Sim's numeric workspaces (Numeric, Vals, the K-lane
	// batch) across sweep calls: an adaptive run issues many small
	// refinement sweeps on the same Sim, and reallocating the lane-strided
	// batch arrays per call would put megabytes per run back on the
	// garbage collector. The busy flag hands the workspace to at most one
	// concurrent sweep; others allocate privately. Forks start empty.
	ws     *acWorkspace
	wsBusy atomic.Bool
}

// acWorkspace is the reusable per-Sim numeric state of the sparse AC
// path. Everything in it is rebuilt when the symbolic analysis changes.
type acWorkspace struct {
	sym   *sparse.Symbolic
	num   *sparse.Numeric
	vals  *sparse.Vals
	nb    *sparse.NumericBatch
	bvals []*sparse.Vals
	lane  [][]complex128 // bvals[j].Values(), cached
	diagB []complex128
}

// acquireWorkspace hands out the Sim's cached workspace for one sweep
// (release via releaseWorkspace), rebuilding it if the symbolic analysis
// moved. Returns nil when another sweep on this Sim holds it.
func (s *Sim) acquireWorkspace(pat *sparse.Pattern, sym *sparse.Symbolic) *acWorkspace {
	if !s.wsBusy.CompareAndSwap(false, true) {
		return nil
	}
	if s.ws == nil || s.ws.sym != sym {
		s.ws = &acWorkspace{sym: sym, num: sym.NewNumeric(), vals: pat.NewVals()}
	}
	return s.ws
}

func (s *Sim) releaseWorkspace() {
	s.wsBusy.Store(false)
}

// New returns a simulator over the compiled system with default options.
func New(sys *mna.System) *Sim {
	return &Sim{Sys: sys, Opt: DefaultOptions()}
}

// Fork returns a Sim sharing the compiled system, options, trace, and the
// cached AC symbolic analysis, for concurrent sweep workers: the shared
// pieces are read-only or internally locked, while per-worker numeric
// workspaces stay private to each ImpedanceMatrixColumns/AC call.
func (s *Sim) Fork() *Sim {
	return &Sim{Sys: s.Sys, Opt: s.Opt, Trace: s.Trace, ac: s.acShared()}
}

// acShared returns the lazily created shared AC solver cache.
func (s *Sim) acShared() *acShared {
	s.acInit.Do(func() {
		if s.ac == nil {
			s.ac = &acShared{}
		}
	})
	return s.ac
}

// acShared holds the per-system symbolic state of the two-phase sparse AC
// solver: the frozen stamp pattern and the pivot-order/fill analysis. One
// instance is shared by all workers of a sweep; the mutex only guards the
// build-once handoff, after which both pointers are immutable.
type acShared struct {
	mu  sync.Mutex
	pat *sparse.Pattern
	sym *sparse.Symbolic

	// Cached diagonal-extraction plans: the reach sets depend only on the
	// symbolic analysis and the injection node list, so one build serves
	// every worker and every frequency of an all-nodes sweep. The cache
	// holds several entries because an adaptive sweep alternates between
	// the full node list (coarse pass) and per-group subsets (refinement
	// rounds); diagSym records which symbolic the plans were derived from
	// (a drift-triggered rebuild must not reuse stale plans).
	diagSym   *sparse.Symbolic
	diagPlans []diagPlanEntry
}

// diagPlanEntry is one cached (node list -> reach plan) binding.
type diagPlanEntry struct {
	nodes []int
	plan  *sparse.DiagPlan
}

// maxDiagPlans bounds the plan cache; an adaptive run cycles through at
// most a few dozen distinct refinement groups, so evictions are rare.
const maxDiagPlans = 64

// invalidate drops the cached analysis after pattern drift so the next
// sweep rebuilds from the current stamp structure.
func (sh *acShared) invalidate() {
	sh.mu.Lock()
	sh.pat, sh.sym = nil, nil
	sh.diagSym, sh.diagPlans = nil, nil
	sh.mu.Unlock()
}

// ensureDiagPlan returns the shared reach-set plan for the given symbolic
// analysis and injection nodes, building it on first use. Workers forked
// from one Sim hit the cache; a different node list or a rebuilt symbolic
// replaces it.
func (sh *acShared) ensureDiagPlan(sym *sparse.Symbolic, nodes []int) (*sparse.DiagPlan, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.diagSym != sym {
		sh.diagSym, sh.diagPlans = sym, sh.diagPlans[:0]
	}
	for i := range sh.diagPlans {
		if equalInts(sh.diagPlans[i].nodes, nodes) {
			return sh.diagPlans[i].plan, nil
		}
	}
	plan, err := sym.DiagPlan(nodes)
	if err != nil {
		return nil, err
	}
	if len(sh.diagPlans) >= maxDiagPlans {
		sh.diagPlans = sh.diagPlans[:0]
	}
	sh.diagPlans = append(sh.diagPlans, diagPlanEntry{
		nodes: append([]int(nil), nodes...),
		plan:  plan,
	})
	return plan, nil
}

// ACChecksum returns the structural checksum of the cached AC stamp
// pattern and whether the symbolic analysis is currently warm. It reports
// (0, false) before the first sparse sweep builds the symbolic state and
// again after pattern drift invalidates it. The farm's compiled-system
// cache compares this fingerprint across requests: a warm entry whose
// checksum moved is not the circuit it was cached as and must be
// recompiled from source.
func (s *Sim) ACChecksum() (uint64, bool) {
	sh := s.acShared()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pat == nil || sh.sym == nil {
		return 0, false
	}
	return sh.pat.Checksum(), true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ensureSymbolic returns the shared pattern and symbolic analysis,
// building them on first use from one stamped frequency point (omega, op
// supply the numeric values the pivot-order search runs on).
func (s *Sim) ensureSymbolic(omega float64, op *mna.OpPoint) (*sparse.Pattern, *sparse.Symbolic, error) {
	sh := s.acShared()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sym != nil {
		mACSymbolicReuses.Inc()
		s.Trace.Add("ac_symbolic_reuses", 1)
		return sh.pat, sh.sym, nil
	}
	rec := sparse.NewRecorder(s.Sys.NumUnknowns())
	s.Sys.StampAC(rec, nil, omega, op)
	pat := rec.Compile()
	vals := pat.NewVals()
	vals.Begin()
	s.Sys.StampAC(vals, nil, omega, op)
	if vals.Drift() {
		// Two back-to-back stamps disagreeing structurally means the
		// stamping is not deterministic; the two-phase path cannot be used.
		mACPatternDrift.Inc()
		return nil, nil, errNondeterministicStamp
	}
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		return nil, nil, err
	}
	sh.pat, sh.sym = pat, sym
	mACSymbolicBuilds.Inc()
	mACFactorizations.Inc() // the analysis pass is a full factorization
	s.Trace.Add("ac_symbolic_builds", 1)
	s.Trace.Add("ac_factorizations", 1)
	return pat, sym, nil
}

// errNondeterministicStamp reports two back-to-back stamping passes of
// one frequency point that disagree structurally.
var errNondeterministicStamp = fmt.Errorf("analysis: non-deterministic AC stamp pattern")

// PrepareAC builds the shared symbolic analysis from the AC matrix
// stamped at omega unless one is already cached. The pivot order is
// chosen on the values of the frequency it is analyzed at, so a caller
// that splits one frequency grid across forked workers calls PrepareAC
// with the grid's first frequency before forking: otherwise whichever
// worker starts first analyzes at its own chunk's first frequency, and the
// last bits of every result would depend on goroutine scheduling.
func (s *Sim) PrepareAC(omega float64, op *mna.OpPoint) {
	sh := s.acShared()
	sh.mu.Lock()
	built := sh.sym != nil
	sh.mu.Unlock()
	if !built {
		// A failed build is not fatal here: each sweep retries it and
		// degrades to per-point pivot searches, reporting its own errors.
		_, _, _ = s.ensureSymbolic(omega, op)
	}
}

// ErrNoConvergence is returned when every DC homotopy fails. It is the
// same sentinel the public package exposes as acstab.ErrNoConvergence.
var ErrNoConvergence = acerr.ErrNoConvergence

// assembleFn stamps the companion system at candidate x.
type assembleFn func(a mna.RealAdder, b []float64, x []float64)

// newton runs damped Newton iteration with the given assembler, starting
// from x0. It returns the converged solution. A canceled ctx aborts
// between iterations — one assemble+factor+solve at most after the
// cancellation lands. The matrix, factorization and both iterate buffers
// are allocated once per call and reused by every iteration.
func (s *Sim) newton(ctx context.Context, assemble assembleFn, x0 []float64) ([]float64, error) {
	n := s.Sys.NumUnknowns()
	nn := s.Sys.NumNodes()
	x := append([]float64(nil), x0...)
	xn := make([]float64, n)
	a := linalg.NewMatrix(n)
	b := make([]float64, n)
	var lu *linalg.LU
	iters := 0
	defer func() {
		mNewtonIterations.Add(int64(iters))
		s.Trace.Add("newton_iterations", int64(iters))
	}()
	for iter := 0; iter < s.Opt.MaxIter; iter++ {
		if err := acerr.Ctx(ctx); err != nil {
			return nil, err
		}
		iters++
		a.Zero()
		for i := range b {
			b[i] = 0
		}
		assemble(a, b, x)
		var err error
		if lu, err = linalg.FactorInto(lu, a); err != nil {
			return nil, fmt.Errorf("analysis: singular matrix during Newton: %w", err)
		}
		if err := lu.SolveInto(xn, b); err != nil {
			return nil, err
		}
		// Damping: bound the largest node-voltage step.
		maxdv := 0.0
		for i := 0; i < nn; i++ {
			if dv := math.Abs(xn[i] - x[i]); dv > maxdv {
				maxdv = dv
			}
		}
		if s.Opt.MaxStepV > 0 && maxdv > s.Opt.MaxStepV {
			k := s.Opt.MaxStepV / maxdv
			for i := range xn {
				xn[i] = x[i] + k*(xn[i]-x[i])
			}
		}
		converged := true
		for i := range xn {
			tol := s.Opt.AbsTol
			if i < nn {
				tol = s.Opt.VnTol
			}
			lim := tol + s.Opt.RelTol*math.Max(math.Abs(xn[i]), math.Abs(x[i]))
			if math.Abs(xn[i]-x[i]) > lim {
				converged = false
				break
			}
		}
		x, xn = xn, x
		if converged {
			return x, nil
		}
	}
	return nil, ErrNoConvergence
}

// OP computes the DC operating point. On plain-Newton failure it falls
// back to gmin stepping and then source stepping. A canceled ctx aborts
// the Newton loops between iterations with an error wrapping
// acerr.ErrCanceled.
func (s *Sim) OP(ctx context.Context) (*mna.OpPoint, error) {
	mOPSolves.Inc()
	s.Trace.Add("op_solves", 1)
	// Initial guess: zeros, overridden by any .nodeset hints.
	zero := make([]float64, s.Sys.NumUnknowns())
	for node, v := range s.Sys.Ckt.NodeSet {
		if idx, ok := s.Sys.NodeOf(node); ok && idx >= 0 {
			zero[idx] = v
		}
	}
	stamp := func(gshunt, srcScale float64) assembleFn {
		return func(a mna.RealAdder, b []float64, x []float64) {
			s.Sys.StampDC(a, b, x, mna.DCOptions{
				Gmin:         s.Opt.Gmin,
				SrcScale:     srcScale,
				GminToGround: gshunt,
			})
		}
	}
	// Plain Newton.
	if x, err := s.newton(ctx, stamp(0, 1), zero); err == nil {
		return s.Sys.Linearize(x, s.Opt.Gmin), nil
	} else if cerr := acerr.Ctx(ctx); cerr != nil {
		// Cancellation must not cascade into the homotopies.
		return nil, cerr
	}
	// Gmin stepping: heavy shunt first, relax, warm start each stage.
	x := zero
	ok := true
	for g := 1e-2; g >= 1e-13; g /= 10 {
		xn, err := s.newton(ctx, stamp(g, 1), x)
		if err != nil {
			ok = false
			break
		}
		x = xn
	}
	if cerr := acerr.Ctx(ctx); cerr != nil {
		return nil, cerr
	}
	if ok {
		if xn, err := s.newton(ctx, stamp(0, 1), x); err == nil {
			return s.Sys.Linearize(xn, s.Opt.Gmin), nil
		}
	}
	// Source stepping.
	x = zero
	for scale := 0.05; ; scale += 0.05 {
		if scale > 1 {
			scale = 1
		}
		xn, err := s.newton(ctx, stamp(0, scale), x)
		if err != nil {
			if cerr := acerr.Ctx(ctx); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("%w (source stepping failed at scale %.2f)", ErrNoConvergence, scale)
		}
		x = xn
		if scale == 1 {
			return s.Sys.Linearize(x, s.Opt.Gmin), nil
		}
	}
}

// NodeVoltage reads a node voltage from an operating point.
func (s *Sim) NodeVoltage(op *mna.OpPoint, node string) (float64, error) {
	idx, ok := s.Sys.NodeOf(node)
	if !ok {
		return 0, fmt.Errorf("analysis: %w %q", acerr.ErrUnknownNode, node)
	}
	if idx < 0 {
		return 0, nil
	}
	return op.X[idx], nil
}

// SourceCurrent reads the branch current of a voltage-defined element.
func (s *Sim) SourceCurrent(op *mna.OpPoint, elem string) (float64, error) {
	br, ok := s.Sys.BranchOf(elem)
	if !ok {
		return 0, fmt.Errorf("analysis: element %q has no branch current", elem)
	}
	return op.X[br], nil
}

// ACResult holds an AC sweep: per-frequency solution vectors.
type ACResult struct {
	sys   *mna.System
	Freqs []float64
	// Sol[k] is the MNA solution vector at Freqs[k].
	Sol [][]complex128
}

// NodeWave returns the complex node voltage across frequency.
func (r *ACResult) NodeWave(node string) (*wave.Wave, error) {
	idx, ok := r.sys.NodeOf(node)
	if !ok {
		return nil, fmt.Errorf("analysis: %w %q", acerr.ErrUnknownNode, node)
	}
	y := make([]complex128, len(r.Freqs))
	for k := range r.Freqs {
		if idx >= 0 {
			y[k] = r.Sol[k][idx]
		}
	}
	w := wave.New("v("+node+")", append([]float64(nil), r.Freqs...), y)
	w.XUnit = "Hz"
	w.YUnit = "V"
	w.LogX = true
	return w, nil
}

// BranchWave returns the complex branch current of a voltage-defined
// element across frequency.
func (r *ACResult) BranchWave(elem string) (*wave.Wave, error) {
	br, ok := r.sys.BranchOf(elem)
	if !ok {
		return nil, fmt.Errorf("analysis: element %q has no branch current", elem)
	}
	y := make([]complex128, len(r.Freqs))
	for k := range r.Freqs {
		y[k] = r.Sol[k][br]
	}
	w := wave.New("i("+elem+")", append([]float64(nil), r.Freqs...), y)
	w.XUnit = "Hz"
	w.YUnit = "A"
	w.LogX = true
	return w, nil
}

// acFactorizer produces a ready-to-solve sparse factorization of the AC
// system at each frequency of a sweep. It reuses the Sim-shared symbolic
// analysis and owns the per-worker numeric workspaces, so the
// steady-state factorize+solve cycle is pivot-free, map-free, and
// allocation-free. The guards re-pivot instead: a collapsed pivot under
// the frozen order re-runs the pivot search on the values already
// stamped into the CSR (Pattern.Repivot), and pattern drift records a
// fresh pattern for the point. Counter deltas accumulate locally and are
// published by flush (deferred by the callers), keeping atomics off the
// inner loop.
type acFactorizer struct {
	s  *Sim
	op *mna.OpPoint

	// Frozen two-phase state: the Sim-shared pattern and symbolic
	// analysis (sym is nil once drift invalidated it, or when the build
	// failed) and this sweep's numeric workspace over them.
	pat  *sparse.Pattern
	sym  *sparse.Symbolic
	num  *sparse.Numeric
	vals *sparse.Vals

	// curPat/curVals are the pattern and stamped CSR values the current
	// point's factorization was built from (fz.vals for the serial path,
	// one batch lane for extracted probes, a per-point pattern on the
	// fresh path) — the residual, the condition estimator and a re-pivot
	// must read the matrix that was actually factored.
	curPat  *sparse.Pattern
	curVals []complex128

	// Frequency-batched refill state (ImpedanceDiagSweep only), built by
	// ensureBatch: the K-lane numeric workspace, one stamped Vals per lane
	// with its value slice cached, and the lane-strided diagonal output.
	nb    *sparse.NumericBatch
	bvals []*sparse.Vals
	lane  [][]complex128
	diagB []complex128

	// ws is the Sim-cached workspace backing num/vals/nb when this sweep
	// won the CAS handoff; flush releases it. Nil when another sweep held
	// it and this factorizer allocated privately.
	ws *acWorkspace

	// Numerical-health observatory state (per sweep). resThreshold <= 0
	// disables the whole residual path (no extra SpMV, no scratch). The
	// per-point residual and pivot-growth histograms are staged locally
	// and published by flush.
	resThreshold float64
	resHist      *obs.LocalHistogram
	growthHist   *obs.LocalHistogram
	probeEvery   int
	condSamples  int
	condBudget   int
	r, d         []complex128 // residual + refinement-correction scratch, lazy
	cv, cz       []complex128 // condition-estimate scratch, lazy

	refactors int64
	fulls     int64
	solves    int64

	// Numerics tallies, flushed with the counters: refinement steps taken,
	// threshold breaches, points measured, the per-decade residual digest
	// (decades obs.ResidualDecadeMin..Max), sweep maxima, and the
	// worst-residual health points for slow-point capture.
	refines    int64
	breaches   int64
	resPoints  int64
	resDecades [obs.ResidualDecadeMax - obs.ResidualDecadeMin + 1]int64
	resMax     float64
	growthMax  float64
	condMax    float64
	health     []obs.SlowPoint

	// Diagonal-kernel tallies (ImpedanceDiagSweep only): batched
	// SolveDiagInto calls, rows those calls visited, and frequencies
	// bounced to full per-node substitutions.
	diagSolves    int64
	diagRows      int64
	diagFallbacks int64

	// Frequency-batch tallies: refill blocks executed and lanes they
	// carried (lanes/blocks = achieved mean batch width).
	batchBlocks int64
	batchLanes  int64

	// kind names the solver path the most recent at() call took, the
	// slow-point context tag: "refactor" (pivot-free numeric refill),
	// "full" (no frozen analysis: the point's pattern is recorded and
	// pivoted afresh), "refactor_fallback" (the refill hit a collapsed
	// pivot and this point was re-pivoted), or "pattern_drift" (the
	// frozen pattern was invalidated mid-sweep).
	kind string
}

// Solver-path tags reported in slow-point captures.
const (
	solveKindRefactor         = "refactor"
	solveKindFull             = "full"
	solveKindRefactorFallback = "refactor_fallback"
	solveKindPatternDrift     = "pattern_drift"
	// solveKindDiag tags frequency points whose Z_kk values came from the
	// reach-restricted batched diagonal kernel rather than full
	// substitutions.
	solveKindDiag = "diag"
	// solveKindResidualEscalation tags points where a residual breach
	// escalated past in-place refinement to a fresh pivot search.
	solveKindResidualEscalation = "residual_escalation"
)

// newACFactorizer prepares the per-sweep solver state. A failed symbolic
// build is not fatal: the sweep degrades to one fresh pattern and pivot
// search per frequency and each point reports its own error.
func (s *Sim) newACFactorizer(omega0 float64, op *mna.OpPoint) *acFactorizer {
	fz := &acFactorizer{s: s, op: op}
	switch {
	case s.Opt.ResidualThreshold > 0:
		fz.resThreshold = s.Opt.ResidualThreshold
	case s.Opt.ResidualThreshold == 0:
		fz.resThreshold = defResidualThreshold
	}
	if fz.resThreshold > 0 {
		switch {
		case s.Opt.ResidualProbeEvery > 0:
			fz.probeEvery = s.Opt.ResidualProbeEvery
		case s.Opt.ResidualProbeEvery == 0:
			fz.probeEvery = defResidualProbeEvery
		}
		switch {
		case s.Opt.CondSamples > 0:
			fz.condSamples = s.Opt.CondSamples
		case s.Opt.CondSamples == 0:
			fz.condSamples = defCondSamples
		}
		fz.condBudget = fz.condSamples
		fz.health = make([]obs.SlowPoint, 0, obs.MaxHealthPoints)
		fz.resHist = mACResidual.Local()
		fz.growthHist = mACPivotGrowth.Local()
	}
	if pat, sym, err := s.ensureSymbolic(omega0, op); err == nil {
		fz.pat, fz.sym = pat, sym
		if ws := s.acquireWorkspace(pat, sym); ws != nil {
			fz.ws = ws
			fz.num, fz.vals = ws.num, ws.vals
		} else {
			fz.num = sym.NewNumeric()
			fz.vals = pat.NewVals()
		}
	}
	return fz
}

// at stamps and factors the AC system at omega, returning a factorization
// valid until the next call. When b is non-nil it is stamped with the RHS
// excitation; the caller must pass it zeroed.
func (fz *acFactorizer) at(omega float64, b []complex128) (*sparse.Numeric, error) {
	s := fz.s
	if fz.sym == nil {
		fz.kind = solveKindFull
		return fz.fresh(omega, b)
	}
	fz.vals.Begin()
	s.Sys.StampAC(fz.vals, b, omega, fz.op)
	if fz.vals.Drift() {
		// The stamp structure changed under the cached pattern: drop the
		// cache for future sweeps and run out this one on per-point
		// patterns. b is stamped directly, so it is already valid.
		mACPatternDrift.Inc()
		s.Trace.Add("ac_pattern_drift", 1)
		s.acShared().invalidate()
		fz.sym = nil
		fz.kind = solveKindPatternDrift
		return fz.fresh(omega, nil)
	}
	fz.curPat, fz.curVals = fz.pat, fz.vals.Values()
	if err := fz.num.Refactor(fz.curVals); err != nil {
		// Collapsed pivot under the frozen order; re-pivot this single
		// frequency's values.
		mACRefactorFallbacks.Inc()
		s.Trace.Add("ac_refactor_fallbacks", 1)
		fz.kind = solveKindRefactorFallback
		return fz.repivot()
	}
	fz.refactors++
	fz.kind = solveKindRefactor
	if fz.resThreshold > 0 {
		fz.observeGrowth(fz.num.PivotGrowth())
	}
	return fz.num, nil
}

// observeGrowth records one refactor-path point's pivot-growth factor.
func (fz *acFactorizer) observeGrowth(g float64) {
	fz.growthHist.Observe(g)
	if g > fz.growthMax {
		fz.growthMax = g
	}
}

// repivot factors the current point's stamped values (curPat, curVals)
// with a fresh pivot search — the path taken when the frozen order
// collapses at this frequency and when the residual ladder escalates
// past refinement.
func (fz *acFactorizer) repivot() (*sparse.Numeric, error) {
	nm, err := fz.curPat.Repivot(fz.curVals)
	if err != nil {
		return nil, err
	}
	fz.fulls++
	return nm, nil
}

// fresh records the stamp pattern of this one frequency point, stamps its
// values (and b, when non-nil) and re-pivots them: the path for points
// with no frozen symbolic analysis, after pattern drift or a failed build.
func (fz *acFactorizer) fresh(omega float64, b []complex128) (*sparse.Numeric, error) {
	s := fz.s
	rec := sparse.NewRecorder(s.Sys.NumUnknowns())
	s.Sys.StampAC(rec, nil, omega, fz.op)
	pat := rec.Compile()
	vals := pat.NewVals()
	vals.Begin()
	s.Sys.StampAC(vals, b, omega, fz.op)
	if vals.Drift() {
		return nil, errNondeterministicStamp
	}
	fz.curPat, fz.curVals = pat, vals.Values()
	return fz.repivot()
}

// pointResidual computes the scale-relative backward error of the solve
// (x, b) against the matrix the current solver factored, leaving the
// residual vector in fz.r for a possible refinement step.
func (fz *acFactorizer) pointResidual(x, b []complex128) (float64, error) {
	if fz.r == nil {
		n := fz.s.Sys.NumUnknowns()
		fz.r = make([]complex128, n)
		fz.d = make([]complex128, n)
	}
	return fz.curPat.ResidualInf(fz.curVals, x, b, fz.r)
}

// refine applies one step of iterative refinement to x on slv, using the
// residual pointResidual left in fz.r, and returns the new backward error.
func (fz *acFactorizer) refine(slv *sparse.Numeric, x, b []complex128, eta float64) float64 {
	if err := slv.RefineInto(x, fz.r, fz.d); err != nil {
		return eta
	}
	fz.refines++
	if e, err := fz.pointResidual(x, b); err == nil {
		return e
	}
	return eta
}

// verify runs the residual check and refinement-escalation ladder on one
// representative solve of the current frequency point: slv·x = b with b
// still holding the right-hand side it was solved against. On a breach it
// (1) refines x once reusing the existing factorization, (2) escalates to
// a fresh pivot search on the same stamped values plus one more
// refinement (refactor path only), and (3) reports an error wrapping
// acerr.ErrAccuracy if even that leaves the residual above threshold. The
// returned solver is the one that produced the final x; callers reuse it
// for the remaining right-hand sides of the same frequency. The point's
// final residual is recorded either way.
func (fz *acFactorizer) verify(slv *sparse.Numeric, freqHz float64, x, b []complex128) (*sparse.Numeric, error) {
	if fz.resThreshold <= 0 {
		return slv, nil
	}
	eta, err := fz.pointResidual(x, b)
	if err != nil {
		return slv, nil
	}
	if eta > fz.resThreshold {
		fz.breaches++
		// Step 1: one refinement with the existing factorization.
		eta = fz.refine(slv, x, b, eta)
		// Step 2: a fresh pivot search, then refine once more on it. Only
		// the refactor path escalates — the other paths already chose
		// their pivots on this point's values.
		if eta > fz.resThreshold && fz.kind == solveKindRefactor {
			if nm, err := fz.repivot(); err == nil {
				fz.kind = solveKindResidualEscalation
				slv = nm
				if err := slv.SolveInto(x, b); err == nil {
					if e, err := fz.pointResidual(x, b); err == nil {
						eta = e
					}
					if eta > fz.resThreshold {
						eta = fz.refine(slv, x, b, eta)
					}
				}
			}
		}
		if eta > fz.resThreshold {
			fz.observeResidual(eta, freqHz)
			return slv, fmt.Errorf("analysis: residual %.2e above threshold %.2e at %g Hz after refinement and re-pivoting: %w",
				eta, fz.resThreshold, freqHz, acerr.ErrAccuracy)
		}
	}
	fz.observeResidual(eta, freqHz)
	return slv, nil
}

// observeResidual records one point's final backward error: histogram,
// per-decade digest, sweep max, and the worst-residual health capture.
func (fz *acFactorizer) observeResidual(eta, freqHz float64) {
	fz.resPoints++
	fz.resHist.Observe(eta)
	if eta > fz.resMax {
		fz.resMax = eta
	}
	d := obs.ResidualDecadeMin
	switch {
	case math.IsInf(eta, 1):
		d = obs.ResidualDecadeMax
	case eta > 0:
		if l := int(math.Floor(math.Log10(eta))); l > d {
			d = l
		}
		if d > obs.ResidualDecadeMax {
			d = obs.ResidualDecadeMax
		}
	}
	fz.resDecades[d-obs.ResidualDecadeMin]++
	if eta <= 0 {
		return
	}
	// Keep the worst obs.MaxHealthPoints by residual.
	p := obs.SlowPoint{FreqHz: freqHz, Detail: "residual", Residual: eta}
	if len(fz.health) < cap(fz.health) {
		fz.health = append(fz.health, p)
		return
	}
	mi := 0
	for i := 1; i < len(fz.health); i++ {
		if fz.health[i].Residual < fz.health[mi].Residual {
			mi = i
		}
	}
	if len(fz.health) > 0 && eta > fz.health[mi].Residual {
		fz.health[mi] = p
	}
}

// condSampleDue reports whether sweep point k of n is one of the
// condSamples evenly spaced condition-estimate sites and budget remains.
// Split from condSampleAt so the batched sweep can decide *before* paying
// for a lane extraction.
func (fz *acFactorizer) condSampleDue(k, n int) bool {
	if fz.condBudget <= 0 || fz.condSamples <= 0 {
		return false
	}
	stride := n / fz.condSamples
	if stride < 1 {
		stride = 1
	}
	return k%stride == 0
}

// condSampleAt takes one Hager/Higham 1-norm condition estimate when k is
// one of condSamples evenly spaced points of an n-point sweep. Estimates
// need the refactor-path factorization (the CSR values feed ‖A‖₁ and the
// conjugate-transpose solve walks the frozen fill pattern).
func (fz *acFactorizer) condSampleAt(k, n int) {
	if fz.kind != solveKindRefactor || fz.num == nil || !fz.condSampleDue(k, n) {
		return
	}
	fz.condSample()
}

// condSample runs one estimate against the current refactor-path
// factorization (fz.num over fz.curVals); callers have already gated on
// condSampleDue and the solver path.
func (fz *acFactorizer) condSample() {
	fz.condBudget--
	if fz.cv == nil {
		nn := fz.s.Sys.NumUnknowns()
		fz.cv = make([]complex128, nn)
		fz.cz = make([]complex128, nn)
	}
	est, err := fz.num.CondEst1(fz.curVals, fz.cv, fz.cz)
	if err != nil || est <= 0 {
		return
	}
	mACCondEst.Observe(est)
	if est > fz.condMax {
		fz.condMax = est
	}
}

// slowTracker keeps a sweep's worst-K frequency points by factor+solve
// wall time, tagged with the solver path each point took, so "why was this
// sweep slow" is answerable from the run trace alone. It is only allocated
// when the Sim carries a trace — an untraced sweep pays nothing, not even
// the clock reads. K is obs.MaxSlowPoints (8); workers flush their local
// worst-K into the shared run, which keeps the global worst-K.
type slowTracker struct {
	pts []obs.SlowPoint
	min int64 // smallest wall time held once the tracker is full
}

// newSlowTracker returns a tracker when r collects traces, else nil (the
// nil tracker disables capture in the sweep loops).
func newSlowTracker(r *obs.Run) *slowTracker {
	if r == nil {
		return nil
	}
	return &slowTracker{pts: make([]obs.SlowPoint, 0, obs.MaxSlowPoints)}
}

// note records one frequency point's factor+solve wall time.
func (st *slowTracker) note(freqHz float64, wall time.Duration, kind string) {
	w := wall.Nanoseconds()
	if len(st.pts) < obs.MaxSlowPoints {
		st.pts = append(st.pts, obs.SlowPoint{FreqHz: freqHz, WallNS: w, Detail: kind})
		if len(st.pts) == obs.MaxSlowPoints {
			st.refreshMin()
		}
		return
	}
	if w <= st.min {
		return
	}
	for i := range st.pts {
		if st.pts[i].WallNS == st.min {
			st.pts[i] = obs.SlowPoint{FreqHz: freqHz, WallNS: w, Detail: kind}
			break
		}
	}
	st.refreshMin()
}

func (st *slowTracker) refreshMin() {
	st.min = st.pts[0].WallNS
	for _, p := range st.pts[1:] {
		if p.WallNS < st.min {
			st.min = p.WallNS
		}
	}
}

// flush hands the captured points to the run trace (nil-tracker safe, so
// callers can defer it unconditionally).
func (st *slowTracker) flush(r *obs.Run) {
	if st == nil {
		return
	}
	r.AddSlowPoints(st.pts)
	st.pts = st.pts[:0]
	st.min = 0
}

// flush publishes the accumulated counter deltas.
func (fz *acFactorizer) flush() {
	mACFactorizations.Add(fz.fulls)
	mACRefactorizations.Add(fz.refactors)
	mACSolves.Add(fz.solves)
	fz.s.Trace.Add("ac_factorizations", fz.fulls)
	fz.s.Trace.Add("ac_refactorizations", fz.refactors)
	fz.s.Trace.Add("ac_solves", fz.solves)
	if fz.diagSolves != 0 || fz.diagRows != 0 || fz.diagFallbacks != 0 {
		mACDiagSolves.Add(fz.diagSolves)
		mACDiagRows.Add(fz.diagRows)
		mACDiagFallbacks.Add(fz.diagFallbacks)
		fz.s.Trace.Add("ac_diag_solves", fz.diagSolves)
		fz.s.Trace.Add("ac_diag_rows_visited", fz.diagRows)
		fz.s.Trace.Add("ac_diag_fallbacks", fz.diagFallbacks)
	}
	if fz.batchBlocks != 0 {
		mACBatchBlocks.Add(fz.batchBlocks)
		mACBatchLanes.Add(fz.batchLanes)
		fz.s.Trace.Add("ac_batch_blocks", fz.batchBlocks)
		fz.s.Trace.Add("ac_batch_lanes", fz.batchLanes)
	}
	if fz.resHist != nil {
		fz.resHist.Flush()
		fz.growthHist.Flush()
	}
	if fz.resPoints != 0 || fz.refines != 0 || fz.breaches != 0 {
		mACRefinements.Add(fz.refines)
		mACResidualBreaches.Add(fz.breaches)
		tr := fz.s.Trace
		tr.Add("ac_residual_points", fz.resPoints)
		tr.Add("ac_refinements", fz.refines)
		tr.Add("ac_residual_breaches", fz.breaches)
		for i, c := range fz.resDecades {
			if c != 0 {
				tr.Add(obs.ResidualDecadeKey(obs.ResidualDecadeMin+i), c)
			}
		}
		tr.StatMax("numerics_residual_max", fz.resMax)
		tr.StatMax("numerics_pivot_growth_max", fz.growthMax)
		tr.StatMax("numerics_cond_est_max", fz.condMax)
		tr.AddSlowPoints(fz.health)
		fz.refines, fz.breaches, fz.resPoints = 0, 0, 0
		fz.resMax, fz.growthMax, fz.condMax = 0, 0, 0
		fz.resDecades = [obs.ResidualDecadeMax - obs.ResidualDecadeMin + 1]int64{}
		fz.health = fz.health[:0]
	}
	fz.fulls, fz.refactors, fz.solves = 0, 0, 0
	fz.diagSolves, fz.diagRows, fz.diagFallbacks = 0, 0, 0
	fz.batchBlocks, fz.batchLanes = 0, 0
	if fz.ws != nil {
		fz.ws = nil
		fz.s.releaseWorkspace()
	}
}

// AC runs a small-signal sweep over the given frequencies (Hz) with the
// circuit's own AC sources as excitation. A canceled ctx aborts between
// frequency points — within one linear solve of the cancellation.
func (s *Sim) AC(ctx context.Context, freqs []float64, op *mna.OpPoint) (*ACResult, error) {
	sol, err := s.acSweep(ctx, freqs, op, nil)
	if err != nil {
		return nil, err
	}
	return &ACResult{sys: s.Sys, Freqs: append([]float64(nil), freqs...), Sol: sol}, nil
}

// ACResponse runs a small-signal sweep driven by the fixed excitation
// vector rhs (one entry per unknown) in place of the circuit's own AC
// sources, returning the MNA solution vector at every frequency. It is
// how an injection that no netlist element describes — the unit current
// of a return-ratio measurement — rides the same solver path as AC.
func (s *Sim) ACResponse(ctx context.Context, freqs []float64, op *mna.OpPoint, rhs []complex128) ([][]complex128, error) {
	if n := s.Sys.NumUnknowns(); len(rhs) != n {
		return nil, fmt.Errorf("analysis: excitation length %d, want %d", len(rhs), n)
	}
	return s.acSweep(ctx, freqs, op, rhs)
}

// acSweep is the shared loop of AC and ACResponse: a nil rhs stamps the
// circuit's AC sources as the excitation at every frequency.
func (s *Sim) acSweep(ctx context.Context, freqs []float64, op *mna.OpPoint, rhs []complex128) ([][]complex128, error) {
	n := s.Sys.NumUnknowns()
	sol := make([][]complex128, len(freqs))
	if len(freqs) == 0 {
		return sol, nil
	}
	fz := s.newACFactorizer(2*math.Pi*freqs[0], op)
	defer fz.flush()
	slow := newSlowTracker(s.Trace)
	defer slow.flush(s.Trace)
	b, stampB := rhs, []complex128(nil)
	if rhs == nil {
		b = make([]complex128, n)
		stampB = b
	}
	for k, f := range freqs {
		if err := acerr.Ctx(ctx); err != nil {
			return nil, err
		}
		for i := range stampB {
			stampB[i] = 0
		}
		var t0 time.Time
		if slow != nil {
			t0 = time.Now()
		}
		slv, err := fz.at(2*math.Pi*f, stampB)
		if err != nil {
			return nil, fmt.Errorf("analysis: AC at %g Hz: %w", f, err)
		}
		x := make([]complex128, n)
		if err := slv.SolveInto(x, b); err != nil {
			return nil, fmt.Errorf("analysis: AC at %g Hz: %w", f, err)
		}
		fz.solves++
		if _, err := fz.verify(slv, f, x, b); err != nil {
			return nil, err
		}
		fz.condSampleAt(k, len(freqs))
		if slow != nil {
			slow.note(f, time.Since(t0), fz.kind)
		}
		sol[k] = x
	}
	return sol, nil
}

// ImpedanceMatrixColumns computes driving-point impedances: for every
// frequency it factors the AC matrix once and back-substitutes one RHS per
// requested node (unit current injection), returning Z[nodeIdxInList][freq].
// This is the shared-factorization fast path of the all-nodes stability
// sweep; the naive alternative (one full AC analysis per node) is kept in
// the tool package for the ablation benchmark. The factorization itself is
// the two-phase kind: the pivot order and fill pattern come from the
// Sim-shared symbolic analysis and each frequency only refills
// preallocated numeric arrays, so the steady-state loop body performs no
// allocations at all. A canceled ctx aborts between frequency points —
// within one factorization of the cancellation.
func (s *Sim) ImpedanceMatrixColumns(ctx context.Context, freqs []float64, op *mna.OpPoint, nodeIdx []int) ([][]complex128, error) {
	n := s.Sys.NumUnknowns()
	out := make([][]complex128, len(nodeIdx))
	for i := range out {
		out[i] = make([]complex128, len(freqs))
	}
	if len(freqs) == 0 {
		return out, nil
	}
	fz := s.newACFactorizer(2*math.Pi*freqs[0], op)
	defer fz.flush()
	slow := newSlowTracker(s.Trace)
	defer slow.flush(s.Trace)
	b := make([]complex128, n)
	x := make([]complex128, n)
	for k, f := range freqs {
		if err := acerr.Ctx(ctx); err != nil {
			return nil, err
		}
		var t0 time.Time
		if slow != nil {
			t0 = time.Now()
		}
		slv, err := fz.at(2*math.Pi*f, nil)
		if err != nil {
			return nil, fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
		}
		if err := fz.solveColumns(slv, f, k, nodeIdx, out, b, x); err != nil {
			return nil, err
		}
		fz.condSampleAt(k, len(freqs))
		if slow != nil {
			slow.note(f, time.Since(t0), fz.kind)
		}
	}
	return out, nil
}

// solveColumns fills out[i][k] = x[idx] for every injection node i with a
// full substitution on slv, verifying the first column while its
// injection is still in b (an escalated factorization replaces slv for
// the remaining columns). b must be all-zero on entry and is again on
// return.
func (fz *acFactorizer) solveColumns(slv *sparse.Numeric, f float64, k int, nodeIdx []int, out [][]complex128, b, x []complex128) error {
	for i, idx := range nodeIdx {
		b[idx] = 1 // 1 A injection into the node
		err := slv.SolveInto(x, b)
		if err == nil && i == 0 {
			slv, err = fz.verify(slv, f, x, b)
			if err != nil {
				b[idx] = 0
				return err
			}
		}
		b[idx] = 0
		if err != nil {
			return fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
		}
		out[i][k] = x[idx]
	}
	fz.solves += int64(len(nodeIdx))
	return nil
}

// probeDiag is the sampled residual probe of the diagonal kernel, which
// produces only the Z_kk values and so has no full solution to verify:
// every probeEvery-th frequency runs one full solve for the first node on
// the refactor-path factorization num and verifies it. The kernel and the
// full solve perform bitwise-identical arithmetic on the shared
// factorization (both skip zero multipliers), so overwriting the kernel's
// value with the probe's is exact, not a perturbation. When the ladder
// escalates to a fresh pivot search, the kernel's values for this
// frequency came from the degraded factorization, so the whole point is
// redone with full substitutions on the new one.
func (fz *acFactorizer) probeDiag(num *sparse.Numeric, f float64, k int, nodeIdx []int, out [][]complex128, b, x []complex128) error {
	idx0 := nodeIdx[0]
	b[idx0] = 1
	err := num.SolveInto(x, b)
	if err != nil {
		b[idx0] = 0
		return fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
	}
	slv, err := fz.verify(num, f, x, b)
	b[idx0] = 0
	if err != nil {
		return err
	}
	out[0][k] = x[idx0]
	if slv == num {
		return nil
	}
	fz.diagFallbacks++
	for i, idx := range nodeIdx {
		b[idx] = 1
		err := slv.SolveInto(x, b)
		b[idx] = 0
		if err != nil {
			return fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
		}
		out[i][k] = x[idx]
	}
	return nil
}

// freqBatchK resolves the Options.FreqBatch knob to the effective diag
// sweep refill block width.
func (s *Sim) freqBatchK() int {
	k := s.Opt.FreqBatch
	switch {
	case k == 0:
		return defFreqBatch
	case k <= 1:
		return 1
	case k > maxFreqBatch:
		return maxFreqBatch
	}
	return k
}

// ensureBatch sizes the K-lane refill workspace for a diagonal sweep over
// `nodes` injection nodes, reusing the Sim-cached arrays when this sweep
// holds the workspace. The reuse matters for adaptive runs: they issue
// dozens of short refinement sweeps per analysis, and rebuilding K Vals
// plus the lane-strided factor block on every one would spend more time
// in the allocator than in the solver.
func (fz *acFactorizer) ensureBatch(K, nodes int) {
	if ws := fz.ws; ws != nil {
		fz.nb, fz.bvals, fz.lane, fz.diagB = ws.nb, ws.bvals, ws.lane, ws.diagB
		defer func() {
			ws.nb, ws.bvals, ws.lane, ws.diagB = fz.nb, fz.bvals, fz.lane, fz.diagB
		}()
	}
	if fz.nb == nil || fz.nb.K() < K {
		fz.nb = fz.sym.NewNumericBatch(K)
	}
	for len(fz.bvals) < K {
		v := fz.pat.NewVals()
		fz.bvals = append(fz.bvals, v)
		fz.lane = append(fz.lane, v.Values())
	}
	if need := nodes * fz.nb.K(); cap(fz.diagB) < need {
		fz.diagB = make([]complex128, need)
	} else {
		fz.diagB = fz.diagB[:need]
	}
}

// diagBatchSweep is the frequency-batched stage of ImpedanceDiagSweep: it
// processes freqs in K-lane blocks — stamp K matrices, refill all K
// factorizations in one pass over the frozen symbolic index arrays, run
// the K-wide reach-restricted diagonal kernel — and fills out[...][k] for
// every frequency it completes. Per lane the arithmetic is bitwise
// identical to the serial path, so results, probes, and the repair ladder
// are unchanged; only the memory-access schedule differs. It returns the
// index of the first unprocessed frequency: len(freqs) normally, or the
// block where pattern drift invalidated the symbolic analysis, in which
// case the caller's serial loop finishes the sweep from there.
func (fz *acFactorizer) diagBatchSweep(ctx context.Context, freqs []float64, op *mna.OpPoint, nodeIdx []int, out [][]complex128, plan *sparse.DiagPlan, slow *slowTracker, K int, b, x []complex128) (int, error) {
	s := fz.s
	fz.ensureBatch(K, len(nodeIdx))
	nb := fz.nb
	KB := nb.K()
	var kinds [maxFreqBatch]string
	for base := 0; base < len(freqs); base += K {
		if err := acerr.Ctx(ctx); err != nil {
			return base, err
		}
		m := len(freqs) - base
		if m > K {
			m = K
		}
		var t0 time.Time
		if slow != nil {
			t0 = time.Now()
		}
		// Stamp the block's lanes. Drift on any lane means the stamp
		// structure no longer matches the frozen pattern: invalidate and
		// hand the rest of the sweep (from this block's first frequency)
		// to the serial loop, which records per-point patterns.
		for j := 0; j < m; j++ {
			v := fz.bvals[j]
			v.Begin()
			s.Sys.StampAC(v, nil, 2*math.Pi*freqs[base+j], op)
			if v.Drift() {
				mACPatternDrift.Inc()
				s.Trace.Add("ac_pattern_drift", 1)
				s.acShared().invalidate()
				fz.sym = nil
				fz.kind = solveKindPatternDrift
				return base, nil
			}
		}
		if err := nb.Refactor(fz.lane[:m]); err != nil {
			return base, fmt.Errorf("analysis: impedance batch at %g Hz: %w", freqs[base], err)
		}
		fz.batchBlocks++
		fz.batchLanes += int64(m)
		if err := nb.SolveDiagLanesInto(fz.diagB, plan); err != nil {
			return base, fmt.Errorf("analysis: impedance batch at %g Hz: %w", freqs[base], err)
		}
		for j := 0; j < m; j++ {
			k := base + j
			f := freqs[k]
			fz.curPat, fz.curVals = fz.pat, fz.lane[j]
			if !nb.LaneOK(j) {
				// Collapsed pivot under the frozen order: re-pivot this one
				// frequency's lane values, exactly like the serial refactor
				// fallback, and run the full per-node substitutions.
				mACRefactorFallbacks.Inc()
				s.Trace.Add("ac_refactor_fallbacks", 1)
				fz.kind = solveKindRefactorFallback
				slv, err := fz.repivot()
				if err != nil {
					return k, fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
				}
				fz.diagFallbacks++
				if err := fz.solveColumns(slv, f, k, nodeIdx, out, b, x); err != nil {
					return k, err
				}
				kinds[j] = fz.kind
				continue
			}
			for i := range nodeIdx {
				out[i][k] = fz.diagB[i*KB+j]
			}
			fz.refactors++
			fz.diagSolves++
			fz.diagRows += plan.RowsPerSolve()
			kinds[j] = solveKindDiag
			if fz.resThreshold > 0 {
				fz.observeGrowth(nb.LaneGrowth(j))
			}
			// Sampled residual probe and condition estimates both need this
			// lane's factors in serial layout; one extraction serves both.
			probe := fz.resThreshold > 0 && fz.probeEvery > 0 && k%fz.probeEvery == 0
			cond := fz.condSampleDue(k, len(freqs))
			if probe || cond {
				if err := nb.ExtractLane(fz.num, j); err != nil {
					return k, fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
				}
				fz.kind = solveKindRefactor
				if probe {
					if err := fz.probeDiag(fz.num, f, k, nodeIdx, out, b, x); err != nil {
						return k, err
					}
					if fz.kind != solveKindRefactor {
						kinds[j] = fz.kind
					}
				}
				if cond && fz.kind == solveKindRefactor {
					fz.condSample()
				}
			}
			fz.solves += int64(len(nodeIdx))
		}
		if slow != nil {
			per := time.Since(t0) / time.Duration(m)
			for j := 0; j < m; j++ {
				slow.note(freqs[base+j], per, kinds[j])
			}
		}
	}
	return len(freqs), nil
}

// ImpedanceDiagSweep computes only the driving-point diagonal
// Z_kk(ω) = (A⁻¹)_{kk} for the requested nodes, returning
// Z[nodeIdxInList][freq] with the same shape ImpedanceMatrixColumns
// produces. On the refactor path it uses the reach-restricted batched
// diagonal kernel: the per-node forward solve only walks the injection
// step's reach set in the L elimination DAG and the backward solve
// terminates as soon as component k is determined, so each frequency
// costs O(Σ|reach(k)|) rows instead of N full substitutions. The reach
// sets are computed once per sweep (cached on the Sim-shared symbolic
// state, so forked workers build them once) and the steady-state loop
// body is allocation-free. Frequencies are processed in K-lane blocks
// (Options.FreqBatch): one pass over the frozen symbolic index arrays
// refills K factorizations at once, cutting the refill's dominant memory
// traffic — the index-array streaming — by the batch width while keeping
// each lane's arithmetic bitwise identical to a serial refill.
// Frequencies that leave the refactor path — a collapsed pivot re-pivoted
// at that point, or pattern drift invalidating the symbolic analysis
// mid-sweep — fall back to full per-node SolveInto for that point and
// count against acstab_ac_diag_fallbacks_total. Callers that need
// off-diagonal entries (loop-gain extraction) must keep using
// ImpedanceMatrixColumns.
func (s *Sim) ImpedanceDiagSweep(ctx context.Context, freqs []float64, op *mna.OpPoint, nodeIdx []int) ([][]complex128, error) {
	n := s.Sys.NumUnknowns()
	out := make([][]complex128, len(nodeIdx))
	for i := range out {
		out[i] = make([]complex128, len(freqs))
	}
	if len(freqs) == 0 {
		return out, nil
	}
	sp := obs.StartPhase(s.Trace, "diag_solve")
	defer sp.End()
	fz := s.newACFactorizer(2*math.Pi*freqs[0], op)
	defer fz.flush()
	slow := newSlowTracker(s.Trace)
	defer slow.flush(s.Trace)
	var plan *sparse.DiagPlan
	if fz.sym != nil {
		p, err := s.acShared().ensureDiagPlan(fz.sym, nodeIdx)
		if err != nil {
			return nil, fmt.Errorf("analysis: diag sweep plan: %w", err)
		}
		plan = p
	}
	diag := make([]complex128, len(nodeIdx))
	b := make([]complex128, n)
	x := make([]complex128, n)
	start := 0
	if plan != nil {
		if K := s.freqBatchK(); K > 1 {
			k0, err := fz.diagBatchSweep(ctx, freqs, op, nodeIdx, out, plan, slow, K, b, x)
			if err != nil {
				return nil, err
			}
			start = k0
		}
	}
	for k := start; k < len(freqs); k++ {
		f := freqs[k]
		if err := acerr.Ctx(ctx); err != nil {
			return nil, err
		}
		var t0 time.Time
		if slow != nil {
			t0 = time.Now()
		}
		slv, err := fz.at(2*math.Pi*f, nil)
		if err != nil {
			return nil, fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
		}
		kind := fz.kind
		if kind == solveKindRefactor && plan != nil {
			// Refactor succeeded under the frozen pivot order, so the plan's
			// reach sets describe exactly this factorization.
			if err := slv.SolveDiagInto(diag, plan); err != nil {
				return nil, fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
			}
			for i := range nodeIdx {
				out[i][k] = diag[i]
			}
			fz.diagSolves++
			fz.diagRows += plan.RowsPerSolve()
			kind = solveKindDiag
			if fz.resThreshold > 0 && fz.probeEvery > 0 && k%fz.probeEvery == 0 {
				if err := fz.probeDiag(slv, f, k, nodeIdx, out, b, x); err != nil {
					return nil, err
				}
				if fz.kind != solveKindRefactor {
					kind = fz.kind
				}
			}
			fz.condSampleAt(k, len(freqs))
			fz.solves += int64(len(nodeIdx))
		} else {
			// Re-pivoted point (collapsed pivot, drift, or no frozen
			// analysis): its pivot order is its own, so the frozen reach
			// sets do not apply — run the full per-node substitutions.
			fz.diagFallbacks++
			if err := fz.solveColumns(slv, f, k, nodeIdx, out, b, x); err != nil {
				return nil, err
			}
			kind = fz.kind
		}
		if slow != nil {
			slow.note(f, time.Since(t0), kind)
		}
	}
	return out, nil
}

// Impedance computes the driving-point impedance of one node across
// frequency (unit AC current injection, reading the same node's voltage).
func (s *Sim) Impedance(ctx context.Context, freqs []float64, op *mna.OpPoint, node string) (*wave.Wave, error) {
	idx, ok := s.Sys.NodeOf(node)
	if !ok || idx < 0 {
		return nil, fmt.Errorf("analysis: cannot probe node %q: %w", node, acerr.ErrUnknownNode)
	}
	z, err := s.ImpedanceMatrixColumns(ctx, freqs, op, []int{idx})
	if err != nil {
		return nil, err
	}
	w := wave.New("z("+node+")", append([]float64(nil), freqs...), z[0])
	w.XUnit = "Hz"
	w.YUnit = "Ohm"
	w.LogX = true
	return w, nil
}
