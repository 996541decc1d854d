package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"acstab/internal/farm"
)

func netlists(jobs []job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Netlist
	}
	return out
}

func allInputs(seed int64) []string {
	pool, batch, routes := fieldInputs(seed)
	out := append(netlists(seedJobs(seed)), netlists(ladderJobs(seed))...)
	out = append(out, netlists(pool)...)
	out = append(out, netlists(batch)...)
	return append(out, strings.Join(routes, ","))
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, other := allInputs(7), allInputs(7), allInputs(8)
	if len(a) != len(b) {
		t.Fatalf("input counts differ: %d vs %d", len(a), len(b))
	}
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("input %d differs between two runs of one seed", i)
		}
		if a[i] == other[i] {
			same++
		}
	}
	// The paper's fixed circuits repeat across seeds; everything drawn
	// from the seed must not.
	if same > 5 {
		t.Errorf("%d of %d inputs identical across seeds 7 and 8", same, len(a))
	}
}

func TestFieldPoolShape(t *testing.T) {
	pool, batch, _ := fieldInputs(3)
	if len(pool) <= farm.DefaultCacheEntries {
		t.Errorf("pool of %d fields fits the %d-entry compile cache", len(pool), farm.DefaultCacheEntries)
	}
	count := map[int]int{}
	for _, j := range pool {
		count[len(j.Loops)]++
	}
	for k := minFieldLoops; k <= maxFieldLoops; k++ {
		if count[k] != 2 {
			t.Errorf("%d fields with %d loops, want 2", count[k], k)
		}
	}
	dense := 0
	for _, j := range batch {
		if len(j.Loops) <= denseFieldLoops {
			dense++
		}
	}
	if dense != fieldBatchDense {
		t.Errorf("%d of %d batch fields dense, want %d", dense, len(batch), fieldBatchDense)
	}
}

// sampleJobs covers every oracle: the seed circuits, dense and sparse
// fields, and a short and a long ladder.
func sampleJobs(t *testing.T) []job {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	jobs := seedJobs(11)
	jobs = append(jobs, fieldJob(rng, "dense", 20), fieldJob(rng, "sparse", 40))
	return append(jobs, ladderJob(minLadder), ladderJob(maxLadder))
}

func TestTracedRunIsTheSameProgram(t *testing.T) {
	ctx := context.Background()
	for _, j := range sampleJobs(t) {
		j := j
		t.Run(j.Name, func(t *testing.T) {
			want, err := runFacade(ctx, &j)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkReport(&j, want, 1); err != nil {
				t.Fatalf("oracle rejects the untraced report: %v\n%s", err, want)
			}
			tr := newTracer()
			c, err := runComposed(ctx, tr, 1, j.Netlist, nil, j.Node)
			if err != nil {
				t.Fatal(err)
			}
			if c.Text != want {
				t.Fatalf("traced report differs:\n%s\nuntraced:\n%s", c.Text, want)
			}
			self, total := tr.opSelf(0)
			var sum int64
			for name, d := range self {
				if d < 0 {
					t.Errorf("%s: negative self time %d", name, d)
				}
				sum += d
			}
			if sum != total || total <= 0 {
				t.Errorf("self times sum to %d ns, op took %d ns", sum, total)
			}
		})
	}
}

func TestTracedFieldCornersMatchFarm(t *testing.T) {
	ctx := context.Background()
	_, batch, _ := fieldInputs(5)
	for _, j := range []job{batch[0], batch[len(batch)-1]} {
		for k, v := range fieldCornerVariants {
			body, _, err := farm.Run(ctx, &farm.Request{Netlist: j.Netlist, Variables: v.Variables})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkReport(&j, string(body), fieldCorners[k]); err != nil {
				t.Errorf("%s %s: %v", j.Name, v.Label, err)
			}
			c, err := runComposed(ctx, newTracer(), 1, j.Netlist, v.Variables, "")
			if err != nil {
				t.Fatal(err)
			}
			if c.Text != string(body) {
				t.Errorf("%s %s: traced report differs from farm.Run", j.Name, v.Label)
			}
		}
	}
}

// editRows rewrites the all-nodes report rows of the given nodes.
func editRows(text string, nodes map[string]bool, edit func(peak, freq string) (string, string)) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 3 && nodes[f[0]] {
			p, fr := edit(f[1], f[2])
			lines[i] = fmt.Sprintf("%-12s %-14s %-18s %s", f[0], p, fr, strings.Join(f[3:], " "))
		}
	}
	return strings.Join(lines, "\n")
}

func scalePeak(by float64) func(peak, freq string) (string, string) {
	return func(peak, freq string) (string, string) {
		v, _ := strconv.ParseFloat(peak, 64)
		return fmt.Sprintf("%.6f", v*by), freq
	}
}

// dropLoop removes the "Loop at" block holding node and lists the
// block's nodes as rows without a resonant peak, keeping the node count.
func dropLoop(text, node string) string {
	var out, block, moved []string
	flush := func() {
		hit := false
		for _, l := range block[1:] {
			if strings.Fields(l)[0] == node {
				hit = true
			}
		}
		if !hit {
			out = append(out, block...)
			block = nil
			return
		}
		for _, l := range block[1:] {
			moved = append(moved, fmt.Sprintf("%-12s %-14s %-18s no negative peak", strings.Fields(l)[0], "-", "-"))
		}
		block = nil
	}
	for _, l := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(l, "Loop at "):
			if block != nil {
				flush()
			}
			block = []string{l}
		case block != nil && l != "" && l != "Nodes without resonant peaks":
			block = append(block, l)
		default:
			if block != nil {
				flush()
			}
			out = append(out, l)
			if l == "Nodes without resonant peaks" {
				out = append(out, moved...)
				moved = nil
			}
		}
	}
	text = strings.Join(out, "\n")
	if len(moved) > 0 {
		text = strings.TrimRight(text, "\n") + "\nNodes without resonant peaks\n" + strings.Join(moved, "\n") + "\n"
	}
	return text
}

func TestOracleRejectsDoctoredReports(t *testing.T) {
	ctx := context.Background()
	byName := map[string]job{}
	for _, j := range sampleJobs(t) {
		byName[j.Name] = j
	}
	report := func(name string) (job, string) {
		j := byName[name]
		text, err := runFacade(ctx, &j)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReport(&j, text, 1); err != nil {
			t.Fatalf("%s: oracle rejects the real report: %v", name, err)
		}
		return j, text
	}

	field, text := report("dense")
	var res resonator
	for _, r := range field.Loops {
		if r.inRange(1) {
			res = r
			break
		}
	}
	nodes := map[string]bool{"ra" + res.Tag: true, "rb" + res.Tag: true}
	if err := checkReport(&field, editRows(text, nodes, scalePeak(0.8)), 1); err == nil {
		t.Errorf("field report with a shifted zeta passed the oracle")
	}
	if err := checkReport(&field, dropLoop(text, "ra"+res.Tag), 1); err == nil {
		t.Errorf("field report with a dropped loop passed the oracle")
	}
	if err := checkReport(&field, text, fieldCorners[2]); err == nil {
		t.Errorf("nominal field report passed as the 1.25 corner")
	}

	ladder, ltext := report(fmt.Sprintf("ladder-%d", minLadder))
	if err := checkReport(&ladder, editRows(ltext, map[string]bool{"n040": true}, scalePeak(10)), 1); err == nil {
		t.Errorf("ladder report with an invented resonance passed the oracle")
	}

	tank, ttext := report("table1-a")
	var idx, freq, zeta, pm, os float64
	for _, l := range strings.Split(ttext, "\n") {
		if strings.HasPrefix(l, "dominant: ") {
			fmt.Sscanf(l, "dominant: peak %g at %g Hz -> zeta %g, phase margin %g deg, overshoot %g%%", &idx, &freq, &zeta, &pm, &os)
			shifted := fmt.Sprintf("dominant: peak %.3f at %.4g Hz -> zeta %.3f, phase margin %.1f deg, overshoot %.1f%%",
				idx*1.3, freq, zeta, pm, os)
			if err := checkReport(&tank, strings.Replace(ttext, l, shifted, 1), 1); err == nil {
				t.Errorf("table 1 report with a shifted peak passed the oracle")
			}
		}
	}
	tank.Zeta *= 1.3
	if err := checkReport(&tank, ttext, 1); err == nil {
		t.Errorf("table 1 report judged against another zeta passed the oracle")
	}

	full, ftext := report("table2-full")
	moved := editRows(ftext, map[string]bool{"output": true}, func(peak, freq string) (string, string) {
		return peak, "4.10E+06"
	})
	if err := checkReport(&full, moved, 1); err == nil {
		t.Errorf("table 2 report with a moved main-loop frequency passed the oracle")
	}
}

// TestMetricsMatchBenchmarkFile runs both run modes briefly and requires
// the JSON metrics to be exactly the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for traced, want := range map[bool][]struct{ Name, Unit string }{false: spec.EndToEnd, true: spec.PerLayer} {
		w, _ := newWorkload("seed-cli")
		res, err := bench(w, "seed-cli", 1, time.Nanosecond, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
			t.Errorf("traced=%v: %d of %d ops failed", traced, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json declares %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s (%s) missing or with unit %q", traced, m.Name, m.Unit, got.Unit)
			}
		}
	}
}

// TestFieldWireTracedRun drives the wire workload end to end: two farm
// workers, all three routes, the traced compositions and /metrics scrapes.
func TestFieldWireTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two farm workers and runs 100 ops")
	}
	w, _ := newWorkload("field-wire")
	res, err := bench(w, "field-wire", 3, time.Nanosecond, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	for _, m := range []string{"run_ms_p50", "batch_ms_p50", "sharded_ms_p50", "farm.cache_hits", "farm.cache_misses", "shard.plan_ms"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on the wire workload", m, res.Metrics[m].Value)
		}
	}
}
