// Command acbench is the repository's benchmark: netlist text in, stability
// report out, on three seeded workloads, with every answer checked. It
// prints its metrics by name and unit, one per line, and ends with one
// JSON result line. See README.md for the workloads and metrics.
//
//	bash acbench/run.sh --workload seed-cli --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median, the last setup serves the measurement.
	setupReps = 5
	// minOps keeps measuring past --seconds until the 90th percentile has
	// at least ten samples beyond it.
	minOps = 100
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRecord is one timed untraced op.
type opRecord struct {
	Route  string // cli, run, batch or shard
	Wall   time.Duration
	Err    error
	Sparse bool // the AC sweep took the sparse route
	// Hits and Misses count compile-cache lookups during the op.
	Hits, Misses int64
}

// workload is one seeded traffic mix driven by a single closed-loop
// client.
type workload interface {
	// setup generates the inputs, starts what the ops need and warms up.
	setup(ctx context.Context, seed int64) error
	// op runs untraced op i and checks its answer. With agg non-nil it
	// then runs the op's traced counterpart and folds it into agg.
	op(ctx context.Context, i int, agg *traceAgg) opRecord
	// close stops everything setup started and waits for it.
	close()
	// metricsURL is the /metrics endpoint the traced run scrapes ("" when
	// the workload runs in-process).
	metricsURL() string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "seed-cli":
		return &inProcess{gen: seedJobs}, nil
	case "ladder-chain":
		return &inProcess{gen: ladderJobs, warm: []job{ladderJob((minLadder + maxLadder) / 2)}}, nil
	case "field-wire":
		return &fieldWire{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (seed-cli, field-wire, ladder-chain)", name)
}

func main() {
	name := flag.String("workload", "", "seed-cli, field-wire or ladder-chain")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	out := flag.String("out", ".bench_build", "directory for the span file of a traced run")
	flag.Parse()
	w, err := newWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "acbench:", err)
		os.Exit(2)
	}
	res, err := bench(w, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func bench(w workload, name string, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	ctx := context.Background()
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(ctx, seed); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	var agg *traceAgg
	if traced {
		agg = newTraceAgg(w.metricsURL())
	}
	var recs []opRecord
	runtime.GC()
	before := agg.scrape()
	cpu0, alloc0, t0 := cpuTime(), heapAllocBytes(), time.Now()
	for i := 0; ; i++ {
		el := time.Since(t0)
		if (el >= dur && len(recs) >= minOps) || el >= 2*dur+30*time.Second {
			break
		}
		recs = append(recs, w.op(ctx, i, agg))
	}
	wall := time.Since(t0)
	cpu, alloc := cpuTime()-cpu0, heapAllocBytes()-alloc0

	res := &result{Attempted: len(recs), Metrics: map[string]metric{}}
	var lat []float64
	failures := map[string]int{}
	for _, r := range recs {
		if r.Err != nil {
			res.Failed++
			failures[r.Err.Error()]++
			// A failed op misses any latency limit: it counts as lasting
			// the whole run.
			lat = append(lat, ms(wall))
			continue
		}
		lat = append(lat, ms(r.Wall))
	}
	n := float64(len(recs))
	fmt.Printf("workload %s seed %d trace %v: %d ops in %.2f s, %d samples beyond the 90th percentile\n",
		name, seed, traced, len(recs), wall.Seconds(), beyond(len(recs), 0.9))
	e2e := []namedValue{
		{"latency_ms_p50", "ms", median(lat)},
		{"latency_ms_p90", "ms", quantile(lat, 0.9)},
		{"cpu_ms_per_op", "ms", ms(cpu) / n},
		{"ops_per_s", "1/s", (n - float64(res.Failed)) / wall.Seconds()},
		{"alloc_bytes_per_op", "B", float64(alloc) / n},
		{"setup_s", "s", median(setups)},
	}
	printMetric("error_rate", "ratio", float64(res.Failed)/n)
	for _, m := range e2e {
		printMetric(m.name, m.unit, m.v)
		if !traced {
			res.Metrics[m.name] = metric{m.v, m.unit}
		}
	}
	routes := routeSummary(recs)
	if agg != nil {
		after := agg.scrape()
		for _, m := range agg.layerMetrics(routes, before, after) {
			printMetric(m.name, m.unit, m.v)
			res.Metrics[m.name] = metric{m.v, m.unit}
		}
		res.Attempted += agg.ops
		res.Failed += agg.failed
		for msg, c := range agg.failures {
			failures[msg] += c
		}
		if err := agg.writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", name, seed))); err != nil {
			return nil, err
		}
	}
	for _, name := range sortedKeys(routes) {
		r := routes[name]
		fmt.Printf("route %s: %d ops, p50 %.3f ms, dense %d sparse %d, cache hits %d misses %d\n",
			name, r.ops, median(r.lat), r.ops-r.sparse, r.sparse, r.hits, r.misses)
	}
	for msg, c := range failures {
		fmt.Fprintf(os.Stderr, "acbench: %d failed: %s\n", c, msg)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func printMetric(name, unit string, v float64) { fmt.Printf("%-34s %14.6g %s\n", name, v, unit) }

// routeStats aggregates the untraced ops of one route.
type routeStats struct {
	ops, sparse  int
	hits, misses int64
	lat          []float64
}

func routeSummary(recs []opRecord) map[string]*routeStats {
	out := map[string]*routeStats{}
	for _, r := range recs {
		s := out[r.Route]
		if s == nil {
			s = &routeStats{}
			out[r.Route] = s
		}
		s.ops++
		if r.Sparse {
			s.sparse++
		}
		s.hits += r.Hits
		s.misses += r.Misses
		if r.Err == nil {
			s.lat = append(s.lat, ms(r.Wall))
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
