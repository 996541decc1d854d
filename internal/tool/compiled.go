package tool

// Compiled is the immutable, shareable half of a Tool: the flattened
// circuit, the compiled MNA system, the solver's shared symbolic state
// (stamp pattern, pivot order, selected-inverse schedule), and the cached
// DC operating point. It is what the farm worker's content-addressed cache
// stores — production traffic re-submits near-identical netlists
// (corners, Monte Carlo samples, small edits), and everything in here
// depends only on the netlist text and the design-variable overrides, so
// one compile serves every subsequent request with the same fingerprint.
//
// A Compiled is safe for concurrent use by many Tools: the circuit and
// system are read-only after Compile, the symbolic cache inside the base
// Sim is internally locked, and the operating point is built at most once
// under the Compiled's own lock.

import (
	"context"
	"fmt"
	"sync"

	"acstab/internal/analysis"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
)

// Compiled is a flattened and compiled circuit plus the solver state that
// outlives any single run. Build one with Compile, then stamp out cheap
// Tools with NewFromCompiled.
type Compiled struct {
	// Flat is the flattened circuit (auto-zeroed when the compile options
	// asked for it). Read-only.
	Flat *netlist.Circuit
	// Sys is the compiled MNA system. Read-only during AC analysis.
	Sys *mna.System

	// base owns the shared AC symbolic cache; every Tool built from this
	// artifact forks it, so the pattern analysis and selected-inverse
	// schedule are computed once and reused read-only across requests and
	// workers.
	base *analysis.Sim

	// op is the cached DC operating point, built on first use. opErr
	// caches a deterministic solve failure (non-convergence) so a known-bad
	// circuit fails fast on re-submission; context-induced failures are
	// never cached.
	mu    sync.Mutex
	op    *mna.OpPoint
	opErr error
}

// Compile flattens and compiles the circuit once. Only the
// compile-relevant options are consulted: AutoZeroAC (whether pre-existing
// AC stimuli are zeroed on the flattened copy), Analysis (solver options
// baked into the shared base Sim), and Trace (the flatten/mna_assembly
// phase spans land in it). The sweep options play no role here — the same
// Compiled serves runs with any frequency grid.
func Compile(ckt *netlist.Circuit, opts Options) (*Compiled, error) {
	sp := obs.StartPhase(opts.Trace, "flatten")
	flat, err := netlist.Flatten(ckt)
	sp.End()
	if err != nil {
		return nil, err
	}
	if opts.AutoZeroAC {
		flat.ZeroACSources()
	}
	sp = obs.StartPhase(opts.Trace, "mna_assembly")
	sys, err := mna.Compile(flat)
	sp.End()
	if err != nil {
		return nil, err
	}
	base := analysis.New(sys)
	if opts.Analysis != nil {
		base.Opt = *opts.Analysis
	}
	return &Compiled{Flat: flat, Sys: sys, base: base}, nil
}

// ACChecksum returns the structural checksum of the shared AC stamp
// pattern and whether the symbolic analysis is warm — (0, false) until the
// first sweep builds it. Cache layers use it to verify a reused artifact
// still describes the same circuit.
func (c *Compiled) ACChecksum() (uint64, bool) { return c.base.ACChecksum() }

// ensureOP returns the shared operating point, computing it on first use
// with the given per-request Sim (so Newton counters and the "op" phase
// span land in that request's trace). The lock doubles as single-flight:
// concurrent first requests serialize here and all but one get the cached
// point. A deterministic failure is cached; cancellation is not.
func (c *Compiled) ensureOP(ctx context.Context, sim *analysis.Sim, trace *obs.Run) (*mna.OpPoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.op != nil {
		return c.op, nil
	}
	if c.opErr != nil {
		return nil, c.opErr
	}
	sp := obs.StartPhase(trace, "op")
	op, err := sim.OP(ctx)
	sp.End()
	if err != nil {
		if ctx.Err() == nil {
			c.opErr = err
		}
		return nil, fmt.Errorf("tool: operating point: %w", err)
	}
	c.op = op
	return op, nil
}

// NewFromCompiled returns a Tool over the shared compiled artifact:
// flatten, MNA assembly, the symbolic analysis, and the operating point
// are all reused, so a run goes straight to numeric refactorization and
// the sweep. The sweep options (frequency grid, workers, clustering) are
// the caller's own; the compile-relevant options (AutoZeroAC, Analysis)
// must match the ones the artifact was compiled with — a Tool that needs
// different solver options computes its own operating point instead of
// reusing the shared one.
func NewFromCompiled(c *Compiled, opts Options) (*Tool, error) {
	opts, err := ResolveOptions(opts)
	if err != nil {
		return nil, err
	}
	sim := c.base.Fork()
	sim.Trace = opts.Trace
	t := &Tool{Ckt: c.Flat, Flat: c.Flat, Sys: c.Sys, Sim: sim, Opts: opts, shared: c}
	if opts.Analysis != nil {
		sim.Opt = *opts.Analysis
		// Different solver options may converge to a different operating
		// point; do not share the cached one.
		t.shared = nil
	}
	return t, nil
}

// OptionError rejects a run option. Option is the name of the Options
// field at fault, so each front end can point at its own spelling of it
// (a CLI flag, a wire field).
type OptionError struct {
	// Option is the Options field name, e.g. "PointsPerDecade".
	Option string
	// Reason says what is wrong with the value.
	Reason string
}

// Error implements the error interface.
func (e *OptionError) Error() string { return "tool: " + e.Reason }

// maxSweepPoints caps the length of the dense and the coarse frequency
// grid of a run. The paper's workflows sweep a few hundred points; the
// cap only stops a points-per-decade or span so large that building the
// grid would exhaust memory, a failure no recover can catch.
const maxSweepPoints = 100000

// ResolveOptions validates the per-run options and fills the documented
// defaults. It is the one home of the run-option rules: New and
// NewFromCompiled call it, and the farm's wire decoder calls it so that a
// request a run would refuse is refused at decode. A rejection is an
// *OptionError. Resolved options resolve to themselves.
func ResolveOptions(opts Options) (Options, error) {
	if opts.FStart <= 0 {
		return opts, &OptionError{"FStart", fmt.Sprintf("sweep start %g Hz must be > 0", opts.FStart)}
	}
	if opts.FStop <= opts.FStart {
		return opts, &OptionError{"FStop", fmt.Sprintf("sweep stop %g Hz not above start %g Hz", opts.FStop, opts.FStart)}
	}
	if opts.PointsPerDecade <= 0 {
		opts.PointsPerDecade = 40
	}
	if opts.LoopTol <= 0 {
		opts.LoopTol = 0.12
	}
	if opts.CoarsePointsPerDecade < 0 {
		return opts, &OptionError{"CoarsePointsPerDecade",
			fmt.Sprintf("coarse points per decade must be >= 0 (0 = adaptive off), got %d", opts.CoarsePointsPerDecade)}
	}
	// An adaptive run builds the coarse grid first, so its cap is the one
	// named when both grids are oversize.
	if opts.CoarsePointsPerDecade > 0 {
		if n := num.LogGridLen(opts.FStart, opts.FStop, opts.CoarsePointsPerDecade); !(n <= maxSweepPoints) {
			return opts, &OptionError{"CoarsePointsPerDecade",
				fmt.Sprintf("coarse sweep grid of %g points exceeds the %d-point cap", n, maxSweepPoints)}
		}
	}
	if n := num.LogGridLen(opts.FStart, opts.FStop, opts.PointsPerDecade); !(n <= maxSweepPoints) {
		return opts, &OptionError{"PointsPerDecade",
			fmt.Sprintf("dense sweep grid of %g points exceeds the %d-point cap", n, maxSweepPoints)}
	}
	if opts.CoarsePointsPerDecade > opts.PointsPerDecade {
		return opts, &OptionError{"CoarsePointsPerDecade",
			fmt.Sprintf("coarse points per decade (%d) above points per decade (%d)",
				opts.CoarsePointsPerDecade, opts.PointsPerDecade)}
	}
	if opts.CoarsePointsPerDecade > 0 && opts.PointsPerDecade > maxRefinePPD {
		return opts, &OptionError{"PointsPerDecade",
			fmt.Sprintf("adaptive points per decade %d exceeds the refinement cap %d (unbounded refinement is rejected)",
				opts.PointsPerDecade, maxRefinePPD)}
	}
	return opts, nil
}
