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
	// Diagonal-extraction kernel telemetry: selected-inverse Z_kk solves
	// taken, Z entries those solves computed (compare against
	// 2·n·nodes·solves, the rows per-node substitutions would visit), and
	// frequencies that had to fall back to full per-node substitutions.
	mACDiagSolves    = obs.GetCounter("acstab_ac_diag_solves_total")
	mACDiagRows      = obs.GetCounter("acstab_ac_diag_rows_visited_total")
	mACDiagFallbacks = obs.GetCounter("acstab_ac_diag_fallbacks_total")
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
// degrades. While the observatory is on, every residualProbeEvery-th
// frequency point of a diagonal-only sweep runs one full solve so its
// residual can be measured and its Z_kk cross-checked against the
// selected-inverse kernel's (which produces only the diagonal and has no
// full solution vector to verify); the stride keeps that probe under the
// <5% sweep-overhead budget. condSamples Hager/Higham 1-norm condition
// estimates are taken per sweep, evenly spaced.
const (
	defResidualThreshold = 1e-9
	residualProbeEvery   = 16
	condSamples          = 2
	// diagProbeTol is the scale-relative agreement the sampled full-solve
	// probe demands of the selected-inverse kernel's Z_kk.
	diagProbeTol = 1e-9
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
	// (no residual SpMV, no refinement, no probes, no condition
	// estimates, no telemetry).
	ResidualThreshold float64
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

	// ac caches the AC matrix's stamp pattern, symbolic factorization
	// analysis and pencil, which depend only on the compiled system and
	// the operating point and so are computed once per Sim and operating
	// point and shared read-only by every Fork.
	ac     *acShared
	acInit sync.Once

	// ws caches this Sim's numeric workspaces (Numeric, the value array,
	// the selected-inverse Z scratch) across sweep calls: an adaptive run
	// issues many small refinement sweeps on the same Sim, and
	// reallocating them per call would put them back on the garbage
	// collector. The busy flag hands the workspace to at most one
	// concurrent sweep; others allocate privately. Forks start empty.
	ws     *acWorkspace
	wsBusy atomic.Bool
}

// acWorkspace is the reusable per-Sim numeric state of the sparse AC
// path. Everything in it is rebuilt when the symbolic analysis changes.
type acWorkspace struct {
	sym  *sparse.Symbolic
	num  *sparse.Numeric
	vals []complex128 // A(ω) over the pattern's slots, refilled per point
	z    []complex128 // selected-inverse scratch, built on first diag sweep
}

// acquireWorkspace hands out the Sim's cached workspace for one sweep
// (release via releaseWorkspace), rebuilding it if the symbolic analysis
// moved. Returns nil when another sweep on this Sim holds it.
func (s *Sim) acquireWorkspace(pat *sparse.Pattern, sym *sparse.Symbolic) *acWorkspace {
	if !s.wsBusy.CompareAndSwap(false, true) {
		return nil
	}
	if s.ws == nil || s.ws.sym != sym {
		s.ws = &acWorkspace{sym: sym, num: sym.NewNumeric(), vals: make([]complex128, pat.NNZ())}
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
// workspaces stay private to each sweep call.
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

// acShared holds the per-system state of the two-phase sparse AC solver:
// the frozen stamp pattern, the pivot-order/fill analysis, the
// selected-inverse gather schedule derived from it, and the pencil of the
// operating point last swept. One instance is shared by all workers of a
// sweep; the mutex guards the pointers, and what they point to is
// immutable once built.
type acShared struct {
	mu  sync.Mutex
	pat *sparse.Pattern
	sym *sparse.Symbolic

	// pen is the pencil of pen.op over pat. Sweeps of one Sim share their
	// operating point, so one entry serves them all.
	pen *acPencil

	// selInv is the selected-inverse schedule of selSym. It depends only
	// on the symbolic analysis, so one build serves every worker, every
	// node subset and every frequency; selSym guards against a rebuilt
	// analysis reusing a stale schedule.
	selSym *sparse.Symbolic
	selInv *sparse.SelInv
}

// acPencil is the frequency-independent assembly of the AC system at one
// operating point: A(ω) = G + jωC over the shared pattern, and the
// circuit's own AC excitation, which does not depend on ω.
type acPencil struct {
	op *mna.OpPoint
	pc *sparse.Pencil
	b  []complex128
}

// pencilFor returns the pencil of op, building it on first use; the
// caller holds sh.mu. StampAC is affine in ω — every frequency-dependent
// term is jω times a real capacitance or inductance — so one pass at
// ω = 1 yields G = Re and C = Im. That pass is also the stream check: op
// can change the call stream (Linearize swaps a MOSFET's drain and source
// when vds < 0), and a stream that does not match the shared pattern
// replaces it and drops the analysis built on it. Every node unknown gets
// a structural diagonal (sparse.Recorder.CloseDiagonal) so its
// driving-point impedance is on the selected inverse's filled pattern;
// branch unknowns are never probed and stay as stamped.
func (sh *acShared) pencilFor(sys *mna.System, op *mna.OpPoint) *acPencil {
	if sh.pen != nil && sh.pen.op == op {
		return sh.pen
	}
	n := sys.NumUnknowns()
	rec := sparse.NewRecorder(n)
	rec.CloseDiagonal(sys.NumNodes())
	b := make([]complex128, n)
	sys.StampAC(rec, b, 1, op)
	var pc *sparse.Pencil
	if sh.pat != nil {
		pc = sh.pat.Pencil(rec)
	}
	if pc == nil {
		sh.pat = rec.Compile()
		sh.sym, sh.selSym, sh.selInv = nil, nil, nil
		pc = sh.pat.Pencil(rec)
	}
	sh.pen = &acPencil{op: op, pc: pc, b: b}
	return sh.pen
}

// pencil returns the shared pencil of op.
func (s *Sim) pencil(op *mna.OpPoint) *acPencil {
	sh := s.acShared()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pencilFor(s.Sys, op)
}

// ensureSelInv returns the shared selected-inverse schedule of sym,
// building it on first use.
func (sh *acShared) ensureSelInv(sym *sparse.Symbolic) (*sparse.SelInv, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.selSym != sym {
		si, err := sym.SelInv()
		if err != nil {
			return nil, err
		}
		sh.selSym, sh.selInv = sym, si
	}
	return sh.selInv, nil
}

// ACChecksum returns the structural checksum of the cached AC stamp
// pattern and whether the symbolic analysis is currently warm. It reports
// (0, false) until a sweep builds the symbolic state. The farm's
// compiled-system cache compares this fingerprint across requests: a warm
// entry whose checksum moved is not the circuit it was cached as and must
// be recompiled from source.
func (s *Sim) ACChecksum() (uint64, bool) {
	sh := s.acShared()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pat == nil || sh.sym == nil {
		return 0, false
	}
	return sh.pat.Checksum(), true
}

// acState returns the shared pencil of op and the symbolic analysis over
// its pattern, building what is missing in one locked section; built
// reports whether this call ran the symbolic analysis. The pivot-order
// search runs on the pencil filled at omega. A failed analysis leaves sym
// nil: the sweep then re-pivots every point and reports its own errors,
// and the next sweep retries.
func (s *Sim) acState(omega float64, op *mna.OpPoint) (pen *acPencil, sym *sparse.Symbolic, built bool) {
	sh := s.acShared()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pen = sh.pencilFor(s.Sys, op)
	if sh.sym == nil {
		vals := make([]complex128, sh.pat.NNZ())
		pen.pc.FillInto(vals, omega)
		if sym, err := sh.pat.Analyze(vals); err == nil {
			sh.sym, built = sym, true
			mACSymbolicBuilds.Inc()
			mACFactorizations.Inc() // the analysis pass is a full factorization
			s.Trace.Add("ac_symbolic_builds", 1)
			s.Trace.Add("ac_factorizations", 1)
		}
	}
	return pen, sh.sym, built
}

// PrepareAC builds the shared pencil of op and the symbolic analysis at
// omega unless they are already cached. The pivot order is chosen on the
// values of the frequency it is analyzed at, so a caller that splits one
// frequency grid across forked workers calls PrepareAC with the grid's
// first frequency before forking: otherwise whichever worker starts first
// analyzes at its own chunk's first frequency, and the last bits of every
// result would depend on goroutine scheduling.
func (s *Sim) PrepareAC(omega float64, op *mna.OpPoint) {
	s.acState(omega, op)
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
// system at each frequency of a sweep. It reuses the Sim-shared pencil
// and symbolic analysis and owns the per-worker numeric workspaces, so
// the steady-state fill+factorize+solve cycle is pivot-free, map-free,
// and allocation-free. A collapsed pivot under the frozen order re-runs
// the pivot search on the same filled values (Pattern.Repivot). Counter
// deltas accumulate locally and are published by flush (deferred by the
// callers), keeping atomics off the inner loop.
type acFactorizer struct {
	s *Sim

	// The sweep's snapshot of the Sim-shared state — the pencil, its
	// pattern and the symbolic analysis over it (nil when the build
	// failed) — kept for the whole sweep, and this sweep's numeric
	// workspace over them. vals holds the current point's A(ω), which the
	// residual, the condition estimator and a re-pivot all read.
	pen  *acPencil
	pat  *sparse.Pattern
	sym  *sparse.Symbolic
	num  *sparse.Numeric
	vals []complex128

	// ws is the Sim-cached workspace backing num/vals when this sweep won
	// the CAS handoff; flush releases it. Nil when another sweep held it
	// and this factorizer allocated privately.
	ws *acWorkspace

	// Numerical-health observatory state (per sweep). resThreshold <= 0
	// disables the whole residual path (no extra SpMV, no scratch). The
	// per-point residual and pivot-growth histograms are staged locally
	// and published by flush.
	resThreshold float64
	resHist      *obs.LocalHistogram
	growthHist   *obs.LocalHistogram
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

	// Diagonal-kernel tallies (ImpedanceDiagSweep only): selected-inverse
	// solves, Z entries those solves computed, and frequencies bounced to
	// full per-node substitutions.
	diagSolves    int64
	diagRows      int64
	diagFallbacks int64

	// kind names the solver path the most recent at() call took, the
	// slow-point context tag: "refactor" (pivot-free numeric refill),
	// "full" (no frozen analysis: the point is pivoted afresh), or
	// "refactor_fallback" (the refill hit a collapsed pivot and this point
	// was re-pivoted).
	kind string
}

// Solver-path tags reported in slow-point captures.
const (
	solveKindRefactor         = "refactor"
	solveKindFull             = "full"
	solveKindRefactorFallback = "refactor_fallback"
	// solveKindDiag tags frequency points whose Z_kk values came from the
	// selected-inverse diagonal kernel rather than full substitutions.
	solveKindDiag = "diag"
	// solveKindDiagMismatch tags points where the sampled full-solve probe
	// disagreed with the kernel's Z_kk and the point was recomputed with
	// full substitutions.
	solveKindDiagMismatch = "diag_mismatch"
	// solveKindResidualEscalation tags points where a residual breach
	// escalated past in-place refinement to a fresh pivot search.
	solveKindResidualEscalation = "residual_escalation"
)

// newACFactorizer prepares the per-sweep solver state. A failed symbolic
// build is not fatal: the sweep degrades to one pivot search per
// frequency and each point reports its own error.
func (s *Sim) newACFactorizer(omega0 float64, op *mna.OpPoint) *acFactorizer {
	fz := &acFactorizer{s: s}
	switch {
	case s.Opt.ResidualThreshold > 0:
		fz.resThreshold = s.Opt.ResidualThreshold
	case s.Opt.ResidualThreshold == 0:
		fz.resThreshold = defResidualThreshold
	}
	if fz.resThreshold > 0 {
		fz.condBudget = condSamples
		fz.health = make([]obs.SlowPoint, 0, obs.MaxHealthPoints)
		fz.resHist = mACResidual.Local()
		fz.growthHist = mACPivotGrowth.Local()
	}
	pen, sym, built := s.acState(omega0, op)
	fz.pen, fz.pat, fz.sym = pen, pen.pc.Pattern(), sym
	switch {
	case sym == nil:
		fz.vals = make([]complex128, fz.pat.NNZ())
		return fz
	case !built:
		mACSymbolicReuses.Inc()
		s.Trace.Add("ac_symbolic_reuses", 1)
	}
	if ws := s.acquireWorkspace(fz.pat, sym); ws != nil {
		fz.ws = ws
		fz.num, fz.vals = ws.num, ws.vals
	} else {
		fz.num, fz.vals = sym.NewNumeric(), make([]complex128, fz.pat.NNZ())
	}
	return fz
}

// at fills and factors the AC system at omega, returning a factorization
// valid until the next call.
func (fz *acFactorizer) at(omega float64) (*sparse.Numeric, error) {
	s := fz.s
	fz.pen.pc.FillInto(fz.vals, omega)
	if fz.sym == nil {
		fz.kind = solveKindFull
		return fz.repivot()
	}
	if err := fz.num.Refactor(fz.vals); err != nil {
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

// repivot factors the current point's values with a fresh pivot search —
// the path taken when there is no frozen analysis, when the frozen order
// collapses at this frequency, and when the residual ladder escalates
// past refinement.
func (fz *acFactorizer) repivot() (*sparse.Numeric, error) {
	nm, err := fz.pat.Repivot(fz.vals)
	if err != nil {
		return nil, err
	}
	fz.fulls++
	return nm, nil
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
	return fz.pat.ResidualInf(fz.vals, x, b, fz.r)
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
// a fresh pivot search on the same values plus one more
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

// condSampleAt takes one Hager/Higham 1-norm condition estimate when k is
// one of condSamples evenly spaced points of an n-point sweep and budget
// remains. Estimates need the refactor-path factorization (the CSR values
// feed ‖A‖₁ and the conjugate-transpose solve walks the frozen fill
// pattern).
func (fz *acFactorizer) condSampleAt(k, n int) {
	if fz.kind != solveKindRefactor || fz.num == nil || fz.condBudget <= 0 {
		return
	}
	stride := n / condSamples
	if stride < 1 {
		stride = 1
	}
	if k%stride != 0 {
		return
	}
	fz.condBudget--
	if fz.cv == nil {
		nn := fz.s.Sys.NumUnknowns()
		fz.cv = make([]complex128, nn)
		fz.cz = make([]complex128, nn)
	}
	est, err := fz.num.CondEst1(fz.vals, fz.cv, fz.cz)
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

// acSweep is the shared body of AC and ACResponse: a nil rhs takes the
// circuit's own AC sources, recorded once with the pencil, as the
// excitation.
func (s *Sim) acSweep(ctx context.Context, freqs []float64, op *mna.OpPoint, rhs []complex128) ([][]complex128, error) {
	n := s.Sys.NumUnknowns()
	sol := make([][]complex128, len(freqs))
	if len(freqs) == 0 {
		return sol, nil
	}
	fz := s.newACFactorizer(2*math.Pi*freqs[0], op)
	defer fz.flush()
	b := rhs
	if b == nil {
		b = fz.pen.b
	}
	err := fz.sweep(ctx, freqs, "AC", func(k int, f float64, slv *sparse.Numeric) (string, error) {
		x := make([]complex128, n)
		if err := slv.SolveInto(x, b); err != nil {
			return "", fmt.Errorf("analysis: AC at %g Hz: %w", f, err)
		}
		fz.solves++
		if _, err := fz.verify(slv, f, x, b); err != nil {
			return "", err
		}
		sol[k] = x
		return fz.kind, nil
	})
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// sweep is the per-frequency driver of every AC sweep: for each point it
// checks ctx, fills and factors the system (fz.at), runs the caller's
// point body on the factorization, takes the sampled condition estimate
// and notes the point's wall time under the solver-path tag the body
// returns. what names the sweep in factorization errors. A canceled ctx
// aborts between frequency points.
func (fz *acFactorizer) sweep(ctx context.Context, freqs []float64, what string, point func(k int, f float64, slv *sparse.Numeric) (string, error)) error {
	slow := newSlowTracker(fz.s.Trace)
	defer slow.flush(fz.s.Trace)
	for k, f := range freqs {
		if err := acerr.Ctx(ctx); err != nil {
			return err
		}
		var t0 time.Time
		if slow != nil {
			t0 = time.Now()
		}
		slv, err := fz.at(2 * math.Pi * f)
		if err != nil {
			return fmt.Errorf("analysis: %s at %g Hz: %w", what, f, err)
		}
		kind, err := point(k, f, slv)
		if err != nil {
			return err
		}
		fz.condSampleAt(k, len(freqs))
		if slow != nil {
			slow.note(f, time.Since(t0), kind)
		}
	}
	return nil
}

// ImpedanceMatrixColumns computes driving-point impedances by full
// substitution: for every frequency it factors the AC matrix once and
// back-substitutes one RHS per requested node (unit current injection),
// returning Z[nodeIdxInList][freq]. Every production Z_kk route runs
// ImpedanceDiagSweep instead; this sweep is the full-substitution
// reference the diag kernel is tested against. A canceled ctx aborts
// between frequency points — within one factorization of the
// cancellation.
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
	b := make([]complex128, n)
	x := make([]complex128, n)
	err := fz.sweep(ctx, freqs, "impedance", func(k int, f float64, slv *sparse.Numeric) (string, error) {
		err := fz.solveColumns(slv, f, k, nodeIdx, out, b, x)
		return fz.kind, err
	})
	if err != nil {
		return nil, err
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

// probeDiag is the sampled differential check of the diagonal kernel,
// which produces only the Z_kk values and so has no full solution to
// verify: every residualProbeEvery-th frequency runs one full solve for
// the first node on the refactor-path factorization num and verifies its
// residual.
// A verified, unrepaired probe must agree with the kernel's Z_kk to
// diagProbeTol relative to the solution scale ‖x‖∞ (ℓ1 moduli); the
// kernel's value is kept, so results do not depend on where the probes
// fall. The probe's value replaces the kernel's only when verify refined
// it. When the ladder escalates to a fresh pivot search, the kernel's
// values for this frequency came from the degraded factorization, so the
// whole point is redone with full substitutions on the new one; a
// disagreement counts as a residual breach and the point is likewise
// redone with full substitutions, on the factorization the probe just
// verified.
func (fz *acFactorizer) probeDiag(num *sparse.Numeric, f float64, k int, nodeIdx []int, out [][]complex128, b, x []complex128) error {
	idx0 := nodeIdx[0]
	b[idx0] = 1
	err := num.SolveInto(x, b)
	if err != nil {
		b[idx0] = 0
		return fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
	}
	refines := fz.refines
	slv, err := fz.verify(num, f, x, b)
	b[idx0] = 0
	if err != nil {
		return err
	}
	switch {
	case slv != num:
		// Escalated: redo the point on the fresh factorization below.
	case fz.refines != refines:
		out[0][k] = x[idx0]
		return nil
	case cabs1(out[0][k]-x[idx0]) <= diagProbeTol*infNorm1(x):
		return nil
	default:
		fz.breaches++
		fz.kind = solveKindDiagMismatch
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

// cabs1 is the ℓ1 modulus |re(z)| + |im(z)|, within √2 of |z| and free
// of the Hypot call.
func cabs1(z complex128) float64 {
	return math.Abs(real(z)) + math.Abs(imag(z))
}

// infNorm1 returns max_i cabs1(x_i).
func infNorm1(x []complex128) float64 {
	m := 0.0
	for _, v := range x {
		if a := cabs1(v); a > m {
			m = a
		}
	}
	return m
}

// selInv returns the shared selected-inverse schedule and this sweep's Z
// scratch for a diagonal sweep over nodeIdx, reusing the Sim-cached
// scratch when this sweep holds the workspace. It returns a nil schedule
// when there is no frozen analysis or some node's diagonal is off the
// filled pattern; the sweep then runs full per-node substitutions.
func (fz *acFactorizer) selInv(nodeIdx []int) (*sparse.SelInv, []complex128, error) {
	if fz.sym == nil {
		return nil, nil, nil
	}
	si, err := fz.s.acShared().ensureSelInv(fz.sym)
	if err != nil || !si.Covers(nodeIdx) {
		return nil, nil, err
	}
	if ws := fz.ws; ws != nil {
		if int64(len(ws.z)) != si.Entries() {
			ws.z = si.NewZ()
		}
		return si, ws.z, nil
	}
	return si, si.NewZ(), nil
}

// ImpedanceDiagSweep computes only the driving-point diagonal
// Z_kk(ω) = (A⁻¹)_{kk} for the requested nodes, returning
// Z[nodeIdxInList][freq] — the one Z_kk route of every run mode. On the
// refactor path it runs the selected-inverse kernel (sparse.SelInv): one
// backward sweep over the elimination steps computes the inverse on the
// filled pattern of (L+U)ᵀ, which holds every diagonal, so each frequency
// costs O(fill) instead of one full substitution per node. The gather
// schedule is built once per symbolic analysis (cached on the Sim-shared
// state, so forked workers and every node subset share it). Each
// frequency's matrix is one fill of the operating point's G + jωC pencil,
// so the steady-state loop body neither restamps nor allocates.
// Frequencies that leave the refactor path — a collapsed pivot re-pivoted
// at that point, or a sweep whose symbolic analysis failed to build —
// fall back to full per-node SolveInto for that point and count against
// acstab_ac_diag_fallbacks_total.
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
	si, z, err := fz.selInv(nodeIdx)
	if err != nil {
		return nil, fmt.Errorf("analysis: diag sweep plan: %w", err)
	}
	diag := make([]complex128, len(nodeIdx))
	b := make([]complex128, n)
	x := make([]complex128, n)
	err = fz.sweep(ctx, freqs, "impedance", func(k int, f float64, slv *sparse.Numeric) (string, error) {
		if fz.kind != solveKindRefactor || si == nil {
			// Re-pivoted point (collapsed pivot or no frozen analysis): its
			// pivot order is its own, so the frozen schedule does not
			// apply — run the full per-node substitutions.
			fz.diagFallbacks++
			err := fz.solveColumns(slv, f, k, nodeIdx, out, b, x)
			return fz.kind, err
		}
		// Refactor succeeded under the frozen pivot order, so the schedule
		// describes exactly this factorization.
		if err := slv.DiagInverseInto(diag, nodeIdx, si, z); err != nil {
			return "", fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
		}
		for i := range nodeIdx {
			out[i][k] = diag[i]
		}
		fz.diagSolves++
		fz.diagRows += si.Entries()
		kind := solveKindDiag
		if fz.resThreshold > 0 && k%residualProbeEvery == 0 {
			if err := fz.probeDiag(slv, f, k, nodeIdx, out, b, x); err != nil {
				return "", err
			}
			if fz.kind != solveKindRefactor {
				kind = fz.kind
			}
		}
		fz.solves += int64(len(nodeIdx))
		return kind, nil
	})
	if err != nil {
		return nil, err
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
	z, err := s.ImpedanceDiagSweep(ctx, freqs, op, []int{idx})
	if err != nil {
		return nil, err
	}
	w := wave.New("z("+node+")", append([]float64(nil), freqs...), z[0])
	w.XUnit = "Hz"
	w.YUnit = "Ohm"
	w.LogX = true
	return w, nil
}
