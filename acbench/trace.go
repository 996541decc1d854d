package main

// The traced per-layer run: aggregates of the composed ops' spans and
// obs.Run counters, plus /metrics deltas for the farm and shard layers.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type traceAgg struct {
	tr *tracer
	// metricsURL is the /metrics endpoint of the wire workload's first
	// worker ("" in-process).
	metricsURL string

	// ops counts traced attempts, done the ones that composed a report
	// identical to the untraced one.
	ops, done, failed int
	failures          map[string]int

	self      map[string]int64 // summed self ns per layer span name
	total     int64            // summed traced op ns
	unknowns  int64
	points    int64
	stabCalls int64
	sparseOps int
	counters  map[string]int64
	mallocs   uint64

	overheadPct []float64 // traced vs untraced in-process time, per op
	wireMs      []float64 // /run round trip minus in-process time, per op

	shardRuns             int
	shardPlan, shardMerge int64 // ns
}

func newTraceAgg(metricsURL string) *traceAgg {
	return &traceAgg{tr: newTracer(), metricsURL: metricsURL, failures: map[string]int{},
		self: map[string]int64{}, counters: map[string]int64{}}
}

func (a *traceAgg) fail(err error) {
	a.failed++
	a.failures[err.Error()]++
}

// compose runs the traced counterpart of an op and requires its report to
// equal want, the untraced op's report. inProc, when positive, is the
// untraced in-process wall time of the same job, the base of the tracing
// overhead.
func (a *traceAgg) compose(ctx context.Context, op int, src string, vars map[string]float64, node, want string, inProc time.Duration) {
	a.ops++
	first := len(a.tr.spans)
	c, err := runComposed(ctx, a.tr, op, src, vars, node)
	if err != nil {
		a.fail(fmt.Errorf("traced op: %w", err))
		return
	}
	if c.Text != want {
		a.fail(fmt.Errorf("traced report differs from the untraced report"))
		return
	}
	self, total := a.tr.opSelf(first)
	var sum int64
	for name, d := range self {
		if d < 0 {
			a.fail(fmt.Errorf("span %s: negative self time", name))
			return
		}
		sum += d
	}
	if sum != total {
		a.fail(fmt.Errorf("layer self times sum to %d ns, op took %d ns", sum, total))
		return
	}
	a.done++
	for name, d := range self {
		a.self[name] += d
	}
	a.total += total
	a.unknowns += int64(c.Unknowns)
	a.points += int64(c.Points)
	a.mallocs += c.StabMallocs
	for k, v := range c.Counters {
		a.counters[k] += v
	}
	if c.Sparse() {
		a.sparseOps++
	}
	for _, s := range a.tr.spans[first:] {
		if s.Name == "stab.analyze" {
			a.stabCalls++
		}
	}
	if inProc > 0 {
		a.overheadPct = append(a.overheadPct, 100*(float64(total)/float64(inProc.Nanoseconds())-1))
	}
}

// scrape reads the counters of the wire workload's /metrics exposition
// (nil in-process, where no farm or shard layer runs).
func (a *traceAgg) scrape() map[string]float64 {
	if a == nil || a.metricsURL == "" {
		return nil
	}
	resp, err := http.Get(a.metricsURL)
	if err != nil {
		a.fail(fmt.Errorf("scrape /metrics: %w", err))
		return nil
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		a.fail(fmt.Errorf("scrape /metrics: %w", err))
	}
	return out
}

type namedValue struct {
	name, unit string
	v          float64
}

// layerMetrics turns the aggregates into the per-layer metrics. Time
// breakdowns are means per traced op, so the layers' self times add up to
// tool.traced_op_ms; a layer the workload does not exercise reads 0.
func (a *traceAgg) layerMetrics(routes map[string]*routeStats, before, after map[string]float64) []namedValue {
	ops := float64(a.done)
	perOp := func(ns int64) float64 { return ratio(float64(ns)/1e6, ops) }
	c := func(k string) float64 { return float64(a.counters[k]) }
	d := func(k string) float64 { return after[k] - before[k] }
	routeP50 := func(r string) float64 {
		if s := routes[r]; s != nil {
			return median(s.lat)
		}
		return 0
	}
	var sparseOps, allOps float64
	for _, s := range routes {
		sparseOps += float64(s.sparse)
		allOps += float64(s.ops)
	}
	hits, misses := d("acstab_cache_hits_total"), d("acstab_cache_misses_total")
	dispatched := d("acstab_shard_dispatched_total")
	return []namedValue{
		{"netlist.parse_ms", "ms", perOp(a.self["netlist.parse"])},
		{"netlist.flatten_ms", "ms", perOp(a.self["netlist.flatten"])},
		{"mna.compile_ms", "ms", perOp(a.self["mna.compile"])},
		{"mna.unknowns", "count", ratio(float64(a.unknowns), ops)},
		{"analysis.op_ms", "ms", perOp(a.self["analysis.op"])},
		{"analysis.newton_iterations", "count", ratio(c("newton_iterations"), ops)},
		{"analysis.sweep_ms", "ms", perOp(a.self["analysis.sweep"])},
		{"analysis.sweep_points", "count", ratio(float64(a.points), ops)},
		{"analysis.sweep_ns_per_point", "ns", ratio(float64(a.self["analysis.sweep"]), float64(a.points))},
		{"analysis.sparse_route_share", "ratio", ratio(float64(a.sparseOps), ops)},
		{"analysis.sparse_route_ops", "count", sparseOps},
		{"analysis.dense_route_ops", "count", allOps - sparseOps},
		{"analysis.residual_refinements", "count", ratio(c("ac_refinements"), ops)},
		{"sparse.diag_rows_per_solve", "count", ratio(c("ac_diag_rows_visited"), c("ac_diag_solves"))},
		{"sparse.refactor_fallback_ratio", "ratio", ratio(c("ac_refactor_fallbacks"), c("ac_refactorizations")+c("ac_refactor_fallbacks"))},
		{"sparse.symbolic_reuse_ratio", "ratio", ratio(c("ac_symbolic_reuses"), c("ac_symbolic_builds")+c("ac_symbolic_reuses"))},
		{"sparse.batch_lanes_per_block", "count", ratio(c("ac_batch_lanes"), c("ac_batch_blocks"))},
		{"stab.analyze_ms", "ms", perOp(a.self["stab.analyze"])},
		{"stab.allocs_per_node", "count", ratio(float64(a.mallocs), float64(a.stabCalls))},
		{"stab.cluster_ms", "ms", perOp(a.self["stab.cluster"])},
		{"report.render_ms", "ms", perOp(a.self["report.render"])},
		{"tool.self_ms", "ms", perOp(a.self["tool.op"])},
		{"tool.traced_op_ms", "ms", perOp(a.total)},
		{"farm.cache_hit_ratio", "ratio", ratio(hits, hits+misses)},
		{"farm.cache_hits", "count", hits},
		{"farm.cache_misses", "count", misses},
		{"farm.wire_ms", "ms", median(a.wireMs)},
		{"shard.plan_ms", "ms", ratio(float64(a.shardPlan)/1e6, float64(a.shardRuns))},
		{"shard.merge_ms", "ms", ratio(float64(a.shardMerge)/1e6, float64(a.shardRuns))},
		{"shard.hedges", "count", d("acstab_shard_hedged_total")},
		{"shard.redispatches", "count", d("acstab_shard_redispatched_total")},
		{"shard.hedge_ratio", "ratio", ratio(d("acstab_shard_hedged_total"), dispatched)},
		{"shard.redispatch_ratio", "ratio", ratio(d("acstab_shard_redispatched_total"), dispatched)},
		{"obs.trace_overhead_pct", "%", median(a.overheadPct)},
		{"run_ms_p50", "ms", routeP50("run")},
		{"batch_ms_p50", "ms", routeP50("batch")},
		{"sharded_ms_p50", "ms", routeP50("shard")},
	}
}

// writeSpans writes every span of the run as JSON.
func (a *traceAgg) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(a.tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
