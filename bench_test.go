package acstab_test

// Benchmark harness: one benchmark per paper table/figure plus the
// ablation benches from DESIGN.md section 3. Results (reported metrics
// and relative timings) feed EXPERIMENTS.md.

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"syscall"
	"testing"
	"time"

	"fmt"
	"net/http/httptest"

	"acstab/internal/analysis"
	"acstab/internal/circuits"
	"acstab/internal/farm"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/sos"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

func benchSim(b *testing.B, c *netlist.Circuit) *analysis.Sim {
	b.Helper()
	flat, err := netlist.Flatten(c)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := mna.Compile(flat)
	if err != nil {
		b.Fatal(err)
	}
	return analysis.New(sys)
}

// BenchmarkTable1 regenerates Table 1 by simulation (11 tank circuits
// through the single-node flow).
func BenchmarkTable1(b *testing.B) {
	rows := sos.PaperTable1()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			if row.Zeta <= 0.05 || row.Zeta >= 1 {
				continue
			}
			tl, err := tool.New(circuits.SecondOrder(row.Zeta, 1e6), tool.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tl.SingleNode(context.Background(), "t"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2AllNodes regenerates the all-nodes report of the full
// op-amp + bias workload.
func BenchmarkTable2AllNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl, err := tool.New(circuits.FullCircuit(), tool.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := tl.AllNodes(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Text(io.Discard, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2StepResponse regenerates the transient step figure.
func BenchmarkFig2StepResponse(b *testing.B) {
	s := benchSim(b, circuits.OpAmpBuffer(circuits.OpAmpDefaults()))
	var os float64
	for i := 0; i < b.N; i++ {
		res, err := s.Tran(context.Background(), analysis.TranSpec{TStop: 3e-6, TStep: 1e-9, RecordEvery: 10})
		if err != nil {
			b.Fatal(err)
		}
		w, _ := res.NodeWave("output")
		os = w.OvershootPct()
	}
	b.ReportMetric(os, "overshoot_%")
}

// BenchmarkFig3Bode regenerates the broken-loop gain/phase baseline.
func BenchmarkFig3Bode(b *testing.B) {
	s := benchSim(b, circuits.OpAmpOpenLoop(circuits.OpAmpDefaults()))
	op, err := s.OP(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	freqs := num.LogGridPPD(1e2, 1e9, 40)
	var pm float64
	for i := 0; i < b.N; i++ {
		res, err := s.AC(context.Background(), freqs, op)
		if err != nil {
			b.Fatal(err)
		}
		w, _ := res.NodeWave("output")
		fc := w.DB20().Cross(0)
		pm = w.PhaseDeg().At(fc[0])
	}
	b.ReportMetric(pm, "pm_deg")
}

// BenchmarkFig4StabilityPlot regenerates the single-node stability plot.
func BenchmarkFig4StabilityPlot(b *testing.B) {
	tl, err := tool.New(circuits.OpAmpBuffer(circuits.OpAmpDefaults()), tool.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var peak float64
	for i := 0; i < b.N; i++ {
		nr, err := tl.SingleNode(context.Background(), "output")
		if err != nil {
			b.Fatal(err)
		}
		peak = nr.Best.Value
	}
	b.ReportMetric(peak, "peak")
}

// BenchmarkFig5BiasAnnotation regenerates the annotated bias cell.
func BenchmarkFig5BiasAnnotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl, err := tool.New(circuits.BiasCircuit(circuits.BiasDefaults()), tool.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := tl.AllNodes(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Annotate(io.Discard, tl.Flat, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationPerNodeVsShared compares the paper's one-AC-run-per-
// node flow against the shared-factorization fast path (A1 in DESIGN.md).
func BenchmarkAblationPerNodeVsShared(b *testing.B) {
	run := func(b *testing.B, naive bool) {
		opts := tool.DefaultOptions()
		opts.Naive = naive
		opts.Workers = 1
		tl, err := tool.New(circuits.FullCircuit(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tl.AllNodes(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("naive-per-node", func(b *testing.B) { run(b, true) })
	b.Run("shared-factorization", func(b *testing.B) { run(b, false) })
}

// BenchmarkACLadderScaling measures the bare AC sweep on RC ladders of
// growing size (A2).
func BenchmarkACLadderScaling(b *testing.B) {
	for _, n := range []int{20, 60, 150, 400} {
		b.Run(itoa(n), func(b *testing.B) { benchACLadder(b, n) })
	}
}

// BenchmarkAblationParallelSweep measures worker-pool speedup of the
// all-nodes sweep (A3, the paper's "distributed farm" substitute).
func BenchmarkAblationParallelSweep(b *testing.B) {
	ckt := circuits.ResonatorField(24, 1e5, 0.35)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			opts := tool.DefaultOptions()
			opts.Workers = workers
			tl, err := tool.New(ckt, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tl.AllNodes(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGridResolution trades sweep density against damping-
// estimate accuracy (A4).
func BenchmarkAblationGridResolution(b *testing.B) {
	for _, ppd := range []int{10, 20, 40, 80} {
		b.Run("ppd-"+itoa(ppd), func(b *testing.B) {
			opts := tool.DefaultOptions()
			opts.PointsPerDecade = ppd
			tl, err := tool.New(circuits.SecondOrder(0.186, 3.16e6), opts)
			if err != nil {
				b.Fatal(err)
			}
			var errPct float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nr, err := tl.SingleNode(context.Background(), "t")
				if err != nil {
					b.Fatal(err)
				}
				errPct = 100 * abs(nr.Best.Value+28.905) / 28.905
			}
			b.ReportMetric(errPct, "peak_err_%")
		})
	}
}

// BenchmarkAblationStencil compares the 3-point and 5-point derivative
// schemes (A5).
func BenchmarkAblationStencil(b *testing.B) {
	for _, stencil := range []int{3, 5} {
		b.Run("stencil-"+itoa(stencil), func(b *testing.B) {
			opts := tool.DefaultOptions()
			opts.Stab = stab.Options{Stencil: stencil, MinPeakDepth: 0.75}
			tl, err := tool.New(circuits.SecondOrder(0.186, 3.16e6), opts)
			if err != nil {
				b.Fatal(err)
			}
			var errPct float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nr, err := tl.SingleNode(context.Background(), "t")
				if err != nil {
					b.Fatal(err)
				}
				errPct = 100 * abs(nr.Best.Value+28.905) / 28.905
			}
			b.ReportMetric(errPct, "peak_err_%")
		})
	}
}

// benchSummaryRow is one line of the perf-trajectory summary file.
type benchSummaryRow struct {
	Op          string  `json:"op"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

// TestEmitBenchSummary writes a BENCH_*.json perf summary when the
// ACSTAB_BENCH_JSON env var names an output file, e.g.
//
//	ACSTAB_BENCH_JSON=BENCH_obs.json go test -run TestEmitBenchSummary .
//
// It is a test (not a benchmark) so the trajectory file can be produced by
// one deterministic command in CI without parsing `go test -bench` output.
func TestEmitBenchSummary(t *testing.T) {
	path := os.Getenv("ACSTAB_BENCH_JSON")
	if path == "" {
		t.Skip("set ACSTAB_BENCH_JSON=FILE to emit the benchmark summary")
	}
	ops := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"Table1SingleNode", BenchmarkTable1},
		{"Table2AllNodes", BenchmarkTable2AllNodes},
		{"Fig4StabilityPlot", BenchmarkFig4StabilityPlot},
		{"TransistorAllNodes", BenchmarkTransistorAllNodes},
	}
	var rows []benchSummaryRow
	for _, op := range ops {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			op.fn(b)
		})
		rows = append(rows, benchSummaryRow{
			Op:          op.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark rows to %s", len(rows), path)
}

// TestEmitSparseBenchSummary writes a BENCH_sparse.json summary of the
// two-phase sparse solver's hot path when ACSTAB_BENCH_JSON names an
// output file. Alongside the usual ns/allocs rows it records the solver
// counter deltas (refactorizations vs full factorizations and symbolic
// cache reuse) accumulated across the measured runs, so the symbolic /
// numeric split's effect is visible in the perf-trajectory artifact, not
// just in /metrics.
func TestEmitSparseBenchSummary(t *testing.T) {
	path := os.Getenv("ACSTAB_BENCH_JSON")
	if path == "" {
		t.Skip("set ACSTAB_BENCH_JSON=FILE to emit the sparse benchmark summary")
	}
	counterNames := []string{
		"acstab_ac_refactorizations_total",
		"acstab_ac_factorizations_total",
		"acstab_ac_symbolic_builds_total",
		"acstab_ac_symbolic_reuses_total",
		"acstab_ac_refactor_fallbacks_total",
		"acstab_ac_pattern_drift_total",
	}
	before := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		before[n] = obs.GetCounter(n).Value()
	}
	ops := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"AllNodesScaling32Auto", func(b *testing.B) { benchAllNodesScaling(b, 32, 0) }},
		{"ACLadder150Sparse", func(b *testing.B) { benchACLadder(b, 150) }},
	}
	var rows []benchSummaryRow
	for _, op := range ops {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			op.fn(b)
		})
		rows = append(rows, benchSummaryRow{
			Op:          op.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		})
	}
	counters := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		counters[n] = obs.GetCounter(n).Value() - before[n]
	}
	out := struct {
		Rows     []benchSummaryRow `json:"rows"`
		Counters map[string]int64  `json:"counters"`
	}{rows, counters}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark rows to %s", len(rows), path)
}

// TestEmitDiagBenchSummary writes a BENCH_diag.json summary of the
// reach-restricted diagonal-extraction kernel when ACSTAB_BENCH_JSON names
// an output file: the all-nodes wall time on the 32-loop resonator field
// (default options) plus the kernel counter deltas and the derived
// rows-visited ratio — rows the batched diag solves actually touched over
// the rows the same sweeps would have touched with full per-node
// substitutions. The ratio is also asserted (< 0.7) so a reach-set
// regression fails CI instead of silently emitting a worse artifact.
func TestEmitDiagBenchSummary(t *testing.T) {
	path := os.Getenv("ACSTAB_BENCH_JSON")
	if path == "" {
		t.Skip("set ACSTAB_BENCH_JSON=FILE to emit the diag kernel summary")
	}
	counterNames := []string{
		"acstab_ac_diag_solves_total",
		"acstab_ac_diag_rows_visited_total",
		"acstab_ac_diag_fallbacks_total",
		"acstab_ac_refactorizations_total",
		"acstab_ac_factorizations_total",
	}
	before := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		before[n] = obs.GetCounter(n).Value()
	}
	ops := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"AllNodesScaling32Auto", func(b *testing.B) { benchAllNodesScaling(b, 32, 0) }},
	}
	var rows []benchSummaryRow
	for _, op := range ops {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			op.fn(b)
		})
		rows = append(rows, benchSummaryRow{
			Op:          op.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		})
	}
	counters := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		counters[n] = obs.GetCounter(n).Value() - before[n]
	}
	// Rows a full-substitution sweep would visit per batched solve: every
	// injection node costs one forward plus one backward pass over all n
	// unknowns of the benchmark circuit.
	tl, err := tool.New(circuits.ResonatorField(32, 1e5, 0.35), tool.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nUnknowns := tl.Sys.NumUnknowns()
	nNodes := len(tl.Sys.NodeNames)
	rowsFullPerSolve := int64(nNodes) * 2 * int64(nUnknowns)
	solves, visited := counters["acstab_ac_diag_solves_total"], counters["acstab_ac_diag_rows_visited_total"]
	if solves == 0 {
		t.Fatal("diag kernel never ran during the benchmark")
	}
	ratio := float64(visited) / (float64(solves) * float64(rowsFullPerSolve))
	if !(ratio > 0 && ratio < 0.7) {
		t.Errorf("rows-visited ratio = %g, want (0, 0.7): reach restriction regressed", ratio)
	}
	out := struct {
		Rows             []benchSummaryRow `json:"rows"`
		Counters         map[string]int64  `json:"counters"`
		RowsFullPerSolve int64             `json:"rows_full_per_solve"`
		RowsVisitedRatio float64           `json:"rows_visited_ratio"`
	}{rows, counters, rowsFullPerSolve, ratio}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark rows to %s (rows-visited ratio %.3f)", len(rows), path, ratio)
}

// benchACLadder measures a bare AC sweep on an RC ladder (the inner loop
// the refactor path accelerates, without the stability-analysis overhead
// of the all-nodes flow).
func benchACLadder(b *testing.B, n int) {
	s := benchSim(b, circuits.RCLadder(n))
	op, err := s.OP(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	freqs := num.LogGridPPD(1e3, 1e9, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AC(context.Background(), freqs, op); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkTransistorAllNodes measures the full flow on the transistor-
// level op-amp (nonlinear OP + all-nodes sweep).
func BenchmarkTransistorAllNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl, err := tool.New(circuits.TransistorOpAmp(), tool.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tl.AllNodes(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoleAnalysis measures the exact eigenvalue pole analysis on the
// full Table 2 workload.
func BenchmarkPoleAnalysis(b *testing.B) {
	s := benchSim(b, circuits.FullCircuit())
	op, err := s.OP(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Poles(context.Background(), op, 1e3, 1e9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReturnRatio measures the Blackman loop-gain baseline.
func BenchmarkReturnRatio(b *testing.B) {
	ckt := circuits.OpAmpBuffer(circuits.OpAmpDefaults())
	freqs := num.LogGridPPD(100, 1e9, 40)
	for i := 0; i < b.N; i++ {
		if _, err := tool.ReturnRatio(context.Background(), ckt, "g1", freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllNodesScaling sweeps the all-nodes cost across circuit sizes
// (resonator fields of 8..64 nodes). The adaptive arm runs the
// two-level adaptive sweep (coarse 8 points/decade, refined to the
// default 20 near peaks) — the tool's fast configuration — while the
// uniform arm keeps the dense uniform grid so the adaptive engine's win
// stays directly visible per size.
func BenchmarkAllNodesScaling(b *testing.B) {
	for _, mode := range []struct {
		name   string
		coarse int
	}{
		{"adaptive", benchCoarsePPD},
		{"uniform", 0},
	} {
		for _, k := range []int{4, 8, 16, 32} {
			b.Run(mode.name+"/loops-"+itoa(k), func(b *testing.B) {
				benchAllNodesScaling(b, k, mode.coarse)
			})
		}
	}
}

// benchCoarsePPD is the coarse grid density the adaptive benchmark arms
// use; refinement fills back to the default 20 points/decade near peaks.
const benchCoarsePPD = 8

// benchAllNodesScaling measures the all-nodes sweep on a resonator field.
// coarsePPD > 0 enables the adaptive two-level grid; 0 keeps the dense
// uniform sweep.
func benchAllNodesScaling(b *testing.B, loops int, coarsePPD int) {
	ckt := circuits.ResonatorField(loops, 1e5, 0.35)
	opts := tool.DefaultOptions()
	opts.Workers = 1
	opts.CoarsePointsPerDecade = coarsePPD
	tl, err := tool.New(ckt, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tl.AllNodes(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPulsingVsAC quantifies the paper's speed claim: the AC
// stability plot "significantly speeds up the simulation compared to
// time-domain analysis" (section 1.1). Same node, same circuit, same
// recovered (fn, zeta).
func BenchmarkAblationPulsingVsAC(b *testing.B) {
	b.Run("node-pulsing-transient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr, err := tool.NodePulse(context.Background(), circuits.OpAmpBuffer(circuits.OpAmpDefaults()), "output", 3e6)
			if err != nil {
				b.Fatal(err)
			}
			if pr.Rings < 2 {
				b.Fatal("no ringing")
			}
		}
	})
	b.Run("stability-plot-ac", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tl, err := tool.New(circuits.OpAmpBuffer(circuits.OpAmpDefaults()), tool.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tl.SingleNode(context.Background(), "output"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestEmitCacheBenchSummary writes a BENCH_cache.json summary of the
// farm's content-addressed compile cache + wire-v2 batch path when
// ACSTAB_BENCH_JSON names an output file. Two rows, both measuring one
// 16-variant corner round over HTTP against a live worker:
//
//   - SequentialSubmit16: sixteen wire-v1 POST /run submissions against a
//     cacheless worker — the pre-cache way to run a corner sweep, paying
//     flatten/compile/symbolic per corner plus a round trip per corner.
//   - BatchSubmit16: one wire-v2 POST /batch against a cache-enabled
//     worker whose cache is pre-warmed — the amortized path.
//
// The batch row must beat the sequential row (that is the tentpole's
// acceptance bar), and the cache hit/miss deltas of the measured rounds
// ride along as counters so the artifact shows the cache actually served
// the batch.
func TestEmitCacheBenchSummary(t *testing.T) {
	path := os.Getenv("ACSTAB_BENCH_JSON")
	if path == "" {
		t.Skip("set ACSTAB_BENCH_JSON=FILE to emit the cache/batch summary")
	}
	const benchTank = `bench tank
.param rq=318
R1 t 0 {rq}
L1 t 0 25.33u
C1 t 0 1n
`
	variants := make([]farm.Variant, 16)
	for i := range variants {
		variants[i] = farm.Variant{
			Label:     fmt.Sprintf("corner%02d", i),
			Variables: map[string]float64{"rq": 200 + 25*float64(i)},
		}
	}

	cold := httptest.NewServer(farm.NewHandler(farm.Config{CacheEntries: -1}))
	defer cold.Close()
	warm := httptest.NewServer(farm.Handler())
	defer warm.Close()

	seq := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		c := &farm.Client{BaseURL: cold.URL}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range variants {
				if _, err := c.Submit(context.Background(), &farm.Request{
					Netlist: benchTank, Node: "t", Variables: v.Variables,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	batchReq := &farm.BatchRequest{Netlist: benchTank, Node: "t", Variants: variants}
	hits0 := obs.GetCounter("acstab_cache_hits_total").Value()
	miss0 := obs.GetCounter("acstab_cache_misses_total").Value()
	var sawHit bool
	batch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		c := &farm.Client{BaseURL: warm.URL}
		// Warm pass outside the timer: populate the worker's cache so the
		// measured rounds are the steady-state resubmission path.
		if _, err := c.SubmitBatch(context.Background(), batchReq); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := c.SubmitBatch(context.Background(), batchReq)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				if res.CacheHit {
					sawHit = true
				}
			}
		}
	})
	if !sawHit {
		t.Error("no measured batch item was served from the cache")
	}
	if batch.NsPerOp() >= seq.NsPerOp() {
		t.Errorf("warm 16-variant batch (%d ns/op) is not faster than 16 sequential v1 submissions (%d ns/op)",
			batch.NsPerOp(), seq.NsPerOp())
	}

	out := struct {
		Rows     []benchSummaryRow `json:"rows"`
		Counters map[string]int64  `json:"counters"`
	}{
		Rows: []benchSummaryRow{
			{Op: "SequentialSubmit16", NsPerOp: seq.NsPerOp(), AllocsPerOp: seq.AllocsPerOp(),
				BytesPerOp: seq.AllocedBytesPerOp(), N: seq.N},
			{Op: "BatchSubmit16", NsPerOp: batch.NsPerOp(), AllocsPerOp: batch.AllocsPerOp(),
				BytesPerOp: batch.AllocedBytesPerOp(), N: batch.N},
		},
		Counters: map[string]int64{
			"acstab_cache_hits_total":   obs.GetCounter("acstab_cache_hits_total").Value() - hits0,
			"acstab_cache_misses_total": obs.GetCounter("acstab_cache_misses_total").Value() - miss0,
		},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential %d ns/op, batch %d ns/op (%.2fx) -> %s",
		seq.NsPerOp(), batch.NsPerOp(), float64(seq.NsPerOp())/float64(batch.NsPerOp()), path)
}

// benchAllNodesNumerics mirrors benchAllNodesScaling with the
// numerical-health observatory explicitly on (defaults) or off (all three
// knobs negative), so the two arms differ only in residual telemetry.
func benchAllNodesNumerics(b *testing.B, loops int, numerics bool) {
	ckt := circuits.ResonatorField(loops, 1e5, 0.35)
	opts := tool.DefaultOptions()
	opts.Workers = 1
	aopts := analysis.DefaultOptions()
	if !numerics {
		aopts.ResidualThreshold = -1
		aopts.ResidualProbeEvery = -1
		aopts.CondSamples = -1
	}
	opts.Analysis = &aopts
	tl, err := tool.New(ckt, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tl.AllNodes(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// cpuTime reads the process's cumulative CPU time (user + system).
// Scheduler preemption and frequency scaling on shared runners swing
// wall-clock measurements by tens of percent; CPU time is what the
// observatory actually costs and is stable to a few percent per chunk.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestEmitNumericsBenchSummary writes a BENCH_numerics.json summary of the
// residual observatory's overhead when ACSTAB_BENCH_JSON names an output
// file: the 32-loop resonator-field all-nodes sweep with
// per-point residual telemetry on versus off. The acceptance budget — the
// observatory must add less than 5% to the sweep — is asserted in-test on
// CPU time, as the median of per-chunk on/off ratios over interleaved
// chunks, which is robust to the wall-clock noise of shared runners. The
// artifact rows still carry wall ns/op from testing.Benchmark for the
// perf trajectory, plus the measured CPU overhead in basis points and the
// refinement / breach counter deltas, which also show the healthy-circuit
// sweep triggered no repairs.
func TestEmitNumericsBenchSummary(t *testing.T) {
	path := os.Getenv("ACSTAB_BENCH_JSON")
	if path == "" {
		t.Skip("set ACSTAB_BENCH_JSON=FILE to emit the numerics benchmark summary")
	}
	counterNames := []string{
		"acstab_ac_refinements_total",
		"acstab_ac_residual_breaches_total",
	}
	before := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		before[n] = obs.GetCounter(n).Value()
	}

	// CPU-time overhead: interleaved chunks, median of per-chunk ratios.
	mk := func(numerics bool) *tool.Tool {
		ckt := circuits.ResonatorField(32, 1e5, 0.35)
		opts := tool.DefaultOptions()
		opts.Workers = 1
		aopts := analysis.DefaultOptions()
		if !numerics {
			aopts.ResidualThreshold = -1
			aopts.ResidualProbeEvery = -1
			aopts.CondSamples = -1
		}
		opts.Analysis = &aopts
		tl, err := tool.New(ckt, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	tlOn, tlOff := mk(true), mk(false)
	chunk := func(tl *tool.Tool, iters int) time.Duration {
		start := cpuTime()
		for i := 0; i < iters; i++ {
			if _, err := tl.AllNodes(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		return cpuTime() - start
	}
	chunk(tlOff, 5) // warm caches (symbolic analysis, reach sets, OP)
	chunk(tlOn, 5)
	const chunks, itersPerChunk = 9, 20
	ratios := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		o := chunk(tlOff, itersPerChunk)
		n := chunk(tlOn, itersPerChunk)
		if o > 0 {
			ratios = append(ratios, float64(n)/float64(o))
		}
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("observatory CPU overhead: median %.2f%% over %d chunks (spread %.2f%%..%.2f%%)",
		100*overhead, len(ratios), 100*(ratios[0]-1), 100*(ratios[len(ratios)-1]-1))
	if overhead >= 0.05 {
		t.Errorf("residual observatory CPU overhead %.1f%% exceeds the 5%% budget", 100*overhead)
	}

	// Wall ns/op rows for the trajectory artifact.
	measure := func(numerics bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			benchAllNodesNumerics(b, 32, numerics)
		})
	}
	off := measure(false)
	on := measure(true)
	rows := []benchSummaryRow{
		{Op: "AllNodesScaling32SparseNumericsOff", NsPerOp: off.NsPerOp(),
			AllocsPerOp: off.AllocsPerOp(), BytesPerOp: off.AllocedBytesPerOp(), N: off.N},
		{Op: "AllNodesScaling32SparseNumericsOn", NsPerOp: on.NsPerOp(),
			AllocsPerOp: on.AllocsPerOp(), BytesPerOp: on.AllocedBytesPerOp(), N: on.N},
	}
	counters := make(map[string]int64, len(counterNames)+1)
	for _, n := range counterNames {
		counters[n] = obs.GetCounter(n).Value() - before[n]
	}
	counters["numerics_cpu_overhead_basis_points"] = int64(10000 * overhead)
	out := struct {
		Rows     []benchSummaryRow `json:"rows"`
		Counters map[string]int64  `json:"counters"`
	}{rows, counters}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark rows to %s", len(rows), path)
}

// TestSeedCircuitAccuracyGate is the CI accuracy gate: every seed circuit
// sweeps all nodes with the observatory at its defaults and must come out
// with its worst scale-relative backward error at or below the default
// refinement threshold (1e-9) and zero residual breaches. A solver change
// that silently degrades accuracy fails here even if values still look
// plausible downstream.
func TestSeedCircuitAccuracyGate(t *testing.T) {
	seeds := []struct {
		name string
		ckt  *netlist.Circuit
	}{
		{"second-order", circuits.SecondOrder(0.35, 1e6)},
		{"opamp-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults())},
		{"bias", circuits.BiasCircuit(circuits.BiasDefaults())},
		{"full", circuits.FullCircuit()},
		{"rc-ladder-40", circuits.RCLadder(40)},
		{"resonator-field-8", circuits.ResonatorField(8, 1e5, 0.35)},
	}
	sawPositive := false
	for _, sc := range seeds {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := obs.StartRun("accuracy-gate-" + sc.name)
			opts := tool.DefaultOptions()
			opts.Trace = run
			tl, err := tool.New(sc.ckt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tl.AllNodes(context.Background()); err != nil {
				t.Fatal(err)
			}
			run.Finish()
			tr := run.Trace()
			if tr.Counters["ac_residual_points"] == 0 {
				t.Fatal("no residual telemetry recorded; observatory disabled?")
			}
			if max := tr.Stats["numerics_residual_max"]; max > 1e-9 {
				t.Errorf("worst backward error %g exceeds the 1e-9 gate", max)
			} else if max > 0 {
				sawPositive = true
			}
			if n := tr.Counters["ac_residual_breaches"]; n != 0 {
				t.Errorf("%d residual breaches on a seed circuit, want 0", n)
			}
		})
	}
	if !sawPositive {
		t.Error("every seed circuit reported a zero residual max; telemetry looks wired wrong")
	}
}

// benchAllNodesAdaptiveNoBatch mirrors the adaptive arm with the K-lane
// frequency batch forced off (serial refactor per frequency), isolating
// the batched refill's share of the win.
func benchAllNodesAdaptiveNoBatch(b *testing.B, loops int) {
	ckt := circuits.ResonatorField(loops, 1e5, 0.35)
	opts := tool.DefaultOptions()
	opts.Workers = 1
	opts.CoarsePointsPerDecade = benchCoarsePPD
	aopts := analysis.DefaultOptions()
	aopts.FreqBatch = 1
	opts.Analysis = &aopts
	tl, err := tool.New(ckt, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tl.AllNodes(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEmitGridBenchSummary writes a BENCH_grid.json summary of the
// adaptive-grid + frequency-batched sweep engine when ACSTAB_BENCH_JSON
// names an output file. Three rows on the 32-loop resonator field (one
// worker):
//
//   - AllNodesScaling32SparseUniform: the dense uniform grid (batched
//     refactorization still on — it is the analysis default).
//   - AllNodesScaling32SparseAdaptive: the two-level adaptive grid, the
//     configuration BenchmarkAllNodesScaling's headline arms run.
//   - AllNodesScaling32SparseAdaptiveNoBatch: adaptive with the K-lane
//     batch forced off, so the artifact splits the win between the grid
//     and the batched refill.
//
// A traced (untimed) adaptive run rides along for the acceptance
// assertions: the points-solved ratio — (node, frequency) pairs the
// adaptive sweep solved over what the dense grid would have solved — must
// stay below 0.5, the adaptive run must find the same loop count as the
// uniform run, and the batched refactor path must actually have engaged.
func TestEmitGridBenchSummary(t *testing.T) {
	path := os.Getenv("ACSTAB_BENCH_JSON")
	if path == "" {
		t.Skip("set ACSTAB_BENCH_JSON=FILE to emit the grid benchmark summary")
	}
	ckt := circuits.ResonatorField(32, 1e5, 0.35)
	runRep := func(coarse int) (*tool.Report, *obs.Run) {
		run := obs.StartRun("grid-bench")
		opts := tool.DefaultOptions()
		opts.Workers = 1
		opts.CoarsePointsPerDecade = coarse
		opts.Trace = run
		tl, err := tool.New(ckt, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tl.AllNodes(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		run.Finish()
		return rep, run
	}
	uniformRep, _ := runRep(0)
	adaptiveRep, arun := runRep(benchCoarsePPD)
	// Loop parity on the significant loops. Both grids also report a
	// handful of spurious "loops" from floating-point ripple in the flat
	// inter-resonance regions (depth ~1e-13, nonsense zeta); their count
	// varies with the exact grid on the uniform run too, so the parity
	// check filters to peaks deep enough to be real resonances.
	significant := func(rep *tool.Report) []stab.Loop {
		var out []stab.Loop
		for _, l := range rep.Loops {
			if l.WorstPeak <= -0.75 {
				out = append(out, l)
			}
		}
		return out
	}
	ul, al := significant(uniformRep), significant(adaptiveRep)
	if len(al) != len(ul) {
		t.Errorf("adaptive run found %d significant loops, uniform %d", len(al), len(ul))
	} else {
		for i := range ul {
			if !num.ApproxEqual(al[i].Freq, ul[i].Freq, 0.02, 0) {
				t.Errorf("loop %d: adaptive fn %g vs uniform %g", i, al[i].Freq, ul[i].Freq)
			}
			if !num.ApproxEqual(al[i].Zeta, ul[i].Zeta, 0.1, 0) {
				t.Errorf("loop %d: adaptive zeta %g vs uniform %g", i, al[i].Zeta, ul[i].Zeta)
			}
		}
	}
	tr := arun.Trace()
	pairs := tr.Counters["adaptive_solve_pairs"]
	dense := tr.Counters["adaptive_dense_pairs"]
	if pairs <= 0 || dense <= 0 {
		t.Fatalf("adaptive pair counters missing (solved %d, dense %d)", pairs, dense)
	}
	ratio := float64(pairs) / float64(dense)
	if ratio >= 0.5 {
		t.Errorf("points-solved ratio %.3f, want < 0.5: the adaptive grid stopped paying for itself", ratio)
	}
	if tr.Counters["ac_batch_lanes"] == 0 {
		t.Error("batched refactorization never engaged during the adaptive sweep")
	}

	ops := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"AllNodesScaling32SparseUniform", func(b *testing.B) { benchAllNodesScaling(b, 32, 0) }},
		{"AllNodesScaling32SparseAdaptive", func(b *testing.B) { benchAllNodesScaling(b, 32, benchCoarsePPD) }},
		{"AllNodesScaling32SparseAdaptiveNoBatch", func(b *testing.B) { benchAllNodesAdaptiveNoBatch(b, 32) }},
	}
	var rows []benchSummaryRow
	results := make([]testing.BenchmarkResult, len(ops))
	for i, op := range ops {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			op.fn(b)
		})
		results[i] = r
		rows = append(rows, benchSummaryRow{
			Op:          op.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		})
	}
	if results[1].NsPerOp() >= results[0].NsPerOp() {
		t.Errorf("adaptive sweep (%d ns/op) is not faster than the dense uniform sweep (%d ns/op)",
			results[1].NsPerOp(), results[0].NsPerOp())
	}
	counters := map[string]int64{
		"adaptive_rounds":         tr.Counters["adaptive_rounds"],
		"adaptive_refined_points": tr.Counters["adaptive_refined_points"],
		"adaptive_solve_pairs":    pairs,
		"adaptive_dense_pairs":    dense,
		"ac_batch_blocks":         tr.Counters["ac_batch_blocks"],
		"ac_batch_lanes":          tr.Counters["ac_batch_lanes"],
	}
	out := struct {
		Rows              []benchSummaryRow `json:"rows"`
		Counters          map[string]int64  `json:"counters"`
		PointsSolvedRatio float64           `json:"points_solved_ratio"`
	}{rows, counters, ratio}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("uniform %d ns/op, adaptive %d ns/op (%.2fx), points ratio %.3f -> %s",
		results[0].NsPerOp(), results[1].NsPerOp(),
		float64(results[0].NsPerOp())/float64(results[1].NsPerOp()), ratio, path)
}
