package tool

import (
	"context"
	"maps"
	"sort"

	"acstab/internal/acerr"
	"acstab/internal/netlist"
	"acstab/internal/stab"
)

// runVariant runs an all-nodes analysis of ckt with the given design
// variables (the callers have checked that each exists) and, when temp
// is non-nil, at that temperature in Celsius: one point of a temperature,
// design-variable or Monte Carlo sweep. The overrides go to a copy of the
// circuit with its own Params map; netlist.Flatten evaluates every
// element expression against them when New compiles the copy, and never
// mutates its input, so the caller's circuit is left untouched.
func runVariant(ctx context.Context, ckt *netlist.Circuit, opts Options, params map[string]float64, temp *float64) (*Report, error) {
	if err := acerr.Ctx(ctx); err != nil {
		return nil, err
	}
	mod := *ckt
	mod.Params = maps.Clone(ckt.Params)
	maps.Copy(mod.Params, params)
	if temp != nil {
		mod.Temp = *temp
	}
	t, err := New(&mod, opts)
	if err != nil {
		return nil, err
	}
	return t.AllNodes(ctx)
}

// TempResult pairs a temperature with its all-nodes report.
type TempResult struct {
	Temp   float64
	Report *Report
	Err    error
}

// RunTemps executes an all-nodes analysis at each temperature (the
// "in-tool sweeps (TEMP etc)" feature from the paper's in-development
// list).
func RunTemps(ctx context.Context, ckt *netlist.Circuit, opts Options, temps []float64) []TempResult {
	sorted := append([]float64(nil), temps...)
	sort.Float64s(sorted)
	out := make([]TempResult, len(sorted))
	for i, temp := range sorted {
		out[i].Temp = temp
		rep, err := runVariant(ctx, ckt, opts, nil, &temp)
		out[i].Report = rep
		out[i].Err = err
	}
	return out
}

// WorstLoop returns the loop with the deepest peak in a report, or nil.
func WorstLoop(rep *Report) *stab.Loop {
	var worst *stab.Loop
	for i := range rep.Loops {
		l := &rep.Loops[i]
		if worst == nil || l.WorstPeak < worst.WorstPeak {
			worst = l
		}
	}
	return worst
}
