package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"acstab/internal/farm"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/shard"
	"acstab/internal/tool"
)

// inProcess drives the acstab facade, the path the CLI takes: seed-cli
// cycles the paper's circuits, ladder-chain a pool of RC ladders.
type inProcess struct {
	gen  func(seed int64) []job
	warm []job // warm-up jobs; nil = one pass over the generated jobs
	jobs []job
}

// ladderPoolSize ladders make one ladder-chain pool; a run cycles through
// it several times.
const ladderPoolSize = 40

func ladderJobs(seed int64) []job {
	return ladderPool(rand.New(rand.NewSource(seed)), ladderPoolSize)
}

func (w *inProcess) setup(ctx context.Context, seed int64) error {
	w.jobs = w.gen(seed)
	warm := w.warm
	if warm == nil {
		warm = w.jobs
	}
	for i := range warm {
		if _, err := runFacade(ctx, &warm[i]); err != nil {
			return fmt.Errorf("warm-up %s: %w", warm[i].Name, err)
		}
	}
	return nil
}

func (w *inProcess) op(ctx context.Context, i int, agg *traceAgg) opRecord {
	j := &w.jobs[i%len(w.jobs)]
	sym0 := symbolicCount()
	t0 := time.Now()
	text, err := runFacade(ctx, j)
	rec := opRecord{Route: "cli", Wall: time.Since(t0), Sparse: symbolicCount() > sym0}
	if err == nil {
		err = checkReport(j, text, 1)
	}
	if err != nil {
		rec.Err = fmt.Errorf("%s: %w", j.Name, err)
		return rec
	}
	if agg != nil {
		agg.compose(ctx, i, j.Netlist, nil, j.Node, text, rec.Wall)
	}
	return rec
}

func (w *inProcess) close()             {}
func (w *inProcess) metricsURL() string { return "" }

// farmServer is one in-process acstabd worker on a loopback port.
type farmServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startFarm() (*farmServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Default worker config except the wide-event sink, which discards so
	// stderr writes are not part of the measurement.
	h := farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)})
	s := &farmServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return s, nil
}

func (s *farmServer) stop() {
	s.srv.Close()
	<-s.done
}

// Field-wire shape. The /run and shard routes draw from a pool larger
// than the worker's compile cache (farm.DefaultCacheEntries = 64) in a
// fixed cycle, so those requests compile cold on the first worker; the
// pool holds every loop count twice. The batch route re-submits the
// corners of fieldBatchSize fields at fixed loop counts, one dense and the
// rest sparse; they compile once and then hit, since fewer than 64 other
// keys reach the first worker between two batches of one field.
//
// The mix keeps the run's quantiles off cost-cluster edges: the sparse
// /run, shard and batch ops make up about 60% of ops, so the median falls
// inside the sparse batch cluster and the batch median inside its sparse
// corners, while the 90th percentile lands among the dense fields with the
// most loops.
const (
	fieldPoolSize   = 2 * (maxFieldLoops - minFieldLoops + 1)
	fieldBatchSize  = 8
	fieldBatchDense = 1
)

// routeBlock is one block of the seeded route interleave: every block of
// eight ops holds three /run, three /batch and two sharded ops.
var routeBlock = []string{"run", "run", "run", "batch", "batch", "batch", "shard", "shard"}

// fieldWire serves seeded resonator fields through two in-process farm
// workers: /run and /batch go to the first, the shard coordinator fans
// out over both.
type fieldWire struct {
	pool, batch         []job
	routes              []string
	a, b                *farmServer
	client              *farm.Client
	coord               *shard.Coordinator
	nextPool, nextBatch int
}

// warmField is the fixed field every setup warms all three routes with,
// so connections, handlers and caches are live before the first timed op.
// It is sparse, so a warm-up sweep stays short and set-up time is mostly
// the set-up work itself.
var warmField = fieldJob(rand.New(rand.NewSource(0)), "warm-up", 40)

// fieldInputs generates the field-wire inputs of one seed: the /run and
// shard pool, the batch fields and the route interleave.
func fieldInputs(seed int64) (pool, batch []job, routes []string) {
	rng := rand.New(rand.NewSource(seed))
	// fieldPoolSize strata over the 37 loop counts: each count twice.
	pool = fieldPool(rng, "pool", stratified(rng, fieldPoolSize, minFieldLoops, maxFieldLoops+1))
	// The few batch fields sit at fixed loop counts, spread evenly over
	// each side of the flip, so the batch route's cost does not swing
	// with which counts a seed happens to draw; f0 and zeta stay random.
	ks := append(midpoints(fieldBatchDense, minFieldLoops, denseFieldLoops+1),
		midpoints(fieldBatchSize-fieldBatchDense, denseFieldLoops+1, maxFieldLoops+1)...)
	batch = fieldPool(rng, "batch", ks)
	for b := 0; b < 64; b++ {
		blk := append([]string(nil), routeBlock...)
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		routes = append(routes, blk...)
	}
	return pool, batch, routes
}

func (w *fieldWire) setup(ctx context.Context, seed int64) error {
	w.pool, w.batch, w.routes = fieldInputs(seed)
	w.nextPool, w.nextBatch = 0, 0

	var err error
	if w.a, err = startFarm(); err != nil {
		return err
	}
	if w.b, err = startFarm(); err != nil {
		return err
	}
	w.client = &farm.Client{BaseURL: w.a.url}
	if w.coord, err = shard.New(shard.Config{Workers: []string{w.a.url, w.b.url}}); err != nil {
		return err
	}
	for _, route := range []string{"run", "batch", "shard"} {
		if _, err := w.do(ctx, route, &warmField, nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", route, err)
		}
	}
	return nil
}

func (w *fieldWire) close() {
	for _, s := range []*farmServer{w.a, w.b} {
		if s != nil {
			s.stop()
		}
	}
	w.a, w.b = nil, nil
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func (w *fieldWire) metricsURL() string { return w.a.url + "/metrics" }

func (w *fieldWire) op(ctx context.Context, i int, agg *traceAgg) opRecord {
	route := w.routes[i%len(w.routes)]
	var j *job
	if route == "batch" {
		j = &w.batch[w.nextBatch%len(w.batch)]
		w.nextBatch++
	} else {
		j = &w.pool[w.nextPool%len(w.pool)]
		w.nextPool++
	}
	sym0, hits0, miss0 := symbolicCount(), counter("acstab_cache_hits_total"), counter("acstab_cache_misses_total")
	var shardRun *obs.Run
	if agg != nil && route == "shard" {
		shardRun = obs.StartRun("acbench/shard")
	}
	t0 := time.Now()
	body, err := w.do(ctx, route, j, shardRun)
	rec := opRecord{Route: route, Wall: time.Since(t0), Sparse: symbolicCount() > sym0,
		Hits: counter("acstab_cache_hits_total") - hits0, Misses: counter("acstab_cache_misses_total") - miss0}
	if err != nil {
		rec.Err = fmt.Errorf("%s %s: %w", route, j.Name, err)
		return rec
	}
	if agg == nil {
		return rec
	}
	switch route {
	case "run":
		// The same job in-process, compiled from scratch like the cold
		// /run path: the base of the wire cost and the tracing overhead.
		t1 := time.Now()
		ref, _, err := farm.Run(ctx, &farm.Request{Netlist: j.Netlist})
		inProc := time.Since(t1)
		if err != nil || string(ref) != body {
			agg.fail(fmt.Errorf("in-process farm.Run differs from /run (%v)", err))
			return rec
		}
		agg.wireMs = append(agg.wireMs, ms(rec.Wall-inProc))
		agg.compose(ctx, i, j.Netlist, nil, "", body, inProc)
	case "shard":
		agg.shardRuns++
		for _, p := range shardRun.Trace().Phases {
			switch {
			case p.Attempt != 0:
			case p.Phase == "shard_plan":
				agg.shardPlan += p.DurationNS
			case p.Phase == "shard_merge":
				agg.shardMerge += p.DurationNS
			}
		}
		agg.compose(ctx, i, j.Netlist, nil, "", body, 0)
	}
	return rec
}

// fieldCornerVariants are the batch variants, in fieldCorners order.
var fieldCornerVariants = []farm.Variant{
	{Label: "nom"},
	{Label: "slow", Variables: map[string]float64{"fscale": fieldCorners[1]}},
	{Label: "fast", Variables: map[string]float64{"fscale": fieldCorners[2]}},
}

// do runs one op on a route and checks every report it returns. For the
// single-report routes it returns the report text.
func (w *fieldWire) do(ctx context.Context, route string, j *job, run *obs.Run) (string, error) {
	switch route {
	case "run":
		body, err := w.client.Submit(ctx, &farm.Request{Netlist: j.Netlist})
		if err != nil {
			return "", err
		}
		return string(body), checkReport(j, string(body), 1)
	case "batch":
		res, err := w.client.SubmitBatch(ctx, &farm.BatchRequest{V: farm.WireV2, Netlist: j.Netlist, Variants: fieldCornerVariants})
		if err != nil {
			return "", err
		}
		if len(res) != len(fieldCorners) {
			return "", fmt.Errorf("%d batch results, want %d", len(res), len(fieldCorners))
		}
		for k, r := range res {
			if r.Err != nil {
				return "", r.Err
			}
			if err := checkReport(j, string(r.Body), fieldCorners[k]); err != nil {
				return "", fmt.Errorf("corner %s: %w", r.Label, err)
			}
		}
		return "", nil
	case "shard":
		opts := tool.DefaultOptions()
		opts.Trace = run
		rep, err := w.coord.AllNodes(ctx, j.Netlist, opts)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := report.Text(&buf, rep); err != nil {
			return "", err
		}
		return buf.String(), checkReport(j, buf.String(), 1)
	}
	return "", fmt.Errorf("unknown route %q", route)
}
