// Command acstabctl is the fleet-observability console for a farm of
// acstabd workers: it federates N workers' metrics, status, SLO scores,
// and wide-event streams into one terminal view.
//
// Usage:
//
//	acstabctl -workers http://w1:8080,http://w2:8080 status
//	acstabctl -workers ... top [-n 20]
//	acstabctl -workers ... tail [-once] [-interval 1s]
//
// Subcommands:
//
//	status  one poll round; per-worker up/stale/health table plus the
//	        fleet-wide SLO verdict
//	top     merged fleet metrics: counters summed across workers and
//	        phase-latency histograms bucket-merged (exact fleet
//	        quantiles), largest first, plus fleet run, cache and
//	        residual summary lines
//	tail    follow the fleet's wide events (each worker's /debug/events
//	        ring, polled with per-worker cursors), one JSON line per
//	        event prefixed with the emitting worker
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"acstab/internal/fleet"
)

func main() {
	workers := flag.String("workers", "http://127.0.0.1:8080",
		"comma-separated worker base URLs")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request poll timeout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: acstabctl [flags] status|top|tail [subcommand flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	fl := fleet.New(fleet.Config{Workers: splitWorkers(*workers), Timeout: *timeout})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch cmd := flag.Arg(0); cmd {
	case "status":
		err = runStatus(ctx, os.Stdout, fl)
	case "top":
		fs := flag.NewFlagSet("top", flag.ExitOnError)
		n := fs.Int("n", 20, "how many counters to show")
		fs.Parse(flag.Args()[1:])
		err = runTop(ctx, os.Stdout, fl, *n)
	case "tail":
		fs := flag.NewFlagSet("tail", flag.ExitOnError)
		interval := fs.Duration("interval", time.Second, "poll period")
		once := fs.Bool("once", false, "print the retained events and exit instead of following")
		fs.Parse(flag.Args()[1:])
		err = runTail(ctx, os.Stdout, fl, *interval, *once)
	default:
		fmt.Fprintf(os.Stderr, "acstabctl: unknown subcommand %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "acstabctl: %v\n", err)
		os.Exit(1)
	}
}

// splitWorkers parses the -workers list, dropping empty entries.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// runStatus polls once and prints the fleet table: one row per worker
// plus the fleet-wide roll-up line.
func runStatus(ctx context.Context, w io.Writer, fl *fleet.Fleet) error {
	fl.Poll(ctx)
	view := fl.Snapshot()

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKER\tSTATE\tUPTIME\tINFLIGHT\tRUNS\tERRS\tSHED\tCACHE\tNUMERICS\tSLO\tVERSION")
	for _, wk := range view.Workers {
		state := "down"
		if wk.Up {
			state = "up"
			if wk.Stale {
				state = "stale"
			}
		}
		if wk.Up {
			rev := wk.Build.Revision
			if len(rev) > 8 {
				rev = rev[:8]
			}
			version := wk.Build.Version
			if rev != "" {
				version += "@" + rev
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%d\t%d\t%d\t%s\t%s\t%s\t%s\n",
				wk.URL, state, (time.Duration(wk.UptimeSeconds) * time.Second).String(),
				wk.JobsInflight, wk.RunsTotal, wk.RunErrors, wk.Shed,
				formatCache(wk), formatNumerics(wk), wk.SLOHealth, version)
		} else {
			fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t-\t-\t-\t%s\n", wk.URL, state, wk.Err)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfleet: %d/%d up, slo health %s", view.UpCount, len(view.Workers), view.SLO.Health)
	for _, win := range view.SLO.Windows {
		fmt.Fprintf(w, "  [%s: %d reqs, %.2f%% ok, burn %.2f]",
			formatWindow(win.Window), win.Total, 100*finiteOrZero(win.SuccessRatio, 1),
			finiteOrZero(max(win.ErrorBurnRate, win.LatencyBurnRate), 0))
	}
	fmt.Fprintln(w)
	if len(view.UnmergeableHistograms) > 0 {
		fmt.Fprintf(w, "warning: histograms with mismatched bucket layouts (mixed versions?): %s\n",
			strings.Join(view.UnmergeableHistograms, ", "))
	}
	return nil
}

// runTop polls once and prints the merged fleet metrics, largest first.
func runTop(ctx context.Context, w io.Writer, fl *fleet.Fleet, n int) error {
	fl.Poll(ctx)
	view := fl.Snapshot()
	if view.UpCount == 0 {
		return fmt.Errorf("no workers reachable")
	}

	type kv struct {
		name string
		v    int64
	}
	counters := make([]kv, 0, len(view.Merged.Counters))
	for name, v := range view.Merged.Counters {
		counters = append(counters, kv{name, v})
	}
	sort.Slice(counters, func(a, b int) bool {
		if counters[a].v != counters[b].v {
			return counters[a].v > counters[b].v
		}
		return counters[a].name < counters[b].name
	})
	if n > 0 && len(counters) > n {
		counters = counters[:n]
	}
	fmt.Fprintf(w, "merged counters (%d workers up):\n", view.UpCount)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, c := range counters {
		fmt.Fprintf(tw, "  %s\t%d\n", c.name, c.v)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "fleet runs: %d runs, %d errors\n",
		view.Merged.Counters["acstab_farm_runs_total"],
		view.Merged.Counters["acstab_farm_run_errors_total"])
	if hits, misses := view.Merged.Counters["acstab_cache_hits_total"],
		view.Merged.Counters["acstab_cache_misses_total"]; hits+misses > 0 {
		fmt.Fprintf(w, "fleet cache: %d hits / %d lookups (%.1f%% hit rate), %.0f entries resident\n",
			hits, hits+misses, 100*ratio(hits, hits+misses),
			view.Merged.Gauges["acstab_cache_entries"])
	}
	// Fleet residual quantiles come from the bucket-merged histogram, so
	// they are exact across workers, not averages of per-worker estimates.
	if h, ok := view.Merged.Histograms["acstab_ac_residual"]; ok && h.Count > 0 {
		fmt.Fprintf(w, "fleet residual: %d points, p50 %.2e, p90 %.2e, p99 %.2e; %d refinements, %d breaches\n",
			h.Count, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99),
			view.Merged.Counters["acstab_ac_refinements_total"],
			view.Merged.Counters["acstab_ac_residual_breaches_total"])
	}

	names := make([]string, 0, len(view.Merged.Histograms))
	for name := range view.Merged.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "merged histograms (exact fleet quantiles):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  NAME\tCOUNT\tP50\tP90\tP99")
	for _, name := range names {
		h := view.Merged.Histograms[name]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.4g\t%.4g\t%.4g\n",
			name, h.Count, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
	}
	return tw.Flush()
}

// runTail follows the fleet's wide events: every poll round prints the
// new events of every worker, prefixed with the worker that emitted them.
func runTail(ctx context.Context, w io.Writer, fl *fleet.Fleet, interval time.Duration, once bool) error {
	for {
		for _, ev := range fl.PollEvents(ctx) {
			fmt.Fprintf(w, "%s %s\n", ev.Worker, ev.Event)
		}
		if once {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
}

// formatCache renders a worker's compiled-system cache column as
// "hits/lookups (entries)", or "-" for a cacheless worker.
func formatCache(wk fleet.WorkerView) string {
	lookups := wk.CacheHits + wk.CacheMisses
	if lookups == 0 && wk.CacheEntries == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d (%d)", wk.CacheHits, lookups, wk.CacheEntries)
}

// formatNumerics renders a worker's numerical-health column as
// "p99 <residual>/<refinements>", or "-" before the worker has measured
// any sweep point.
func formatNumerics(wk fleet.WorkerView) string {
	if wk.Numerics == nil || wk.Numerics.Residual.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("p99 %.1e/%d", wk.Numerics.Residual.P99, wk.Numerics.Refinements)
}

// ratio is a/b guarded against the cold-start zero denominator: it
// returns 0 rather than NaN when nothing has been counted yet.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// finiteOrZero pins a derived ratio for display: NaN and ±Inf (a zero or
// degenerate denominator upstream) render as fallback instead of
// poisoning the status line.
func finiteOrZero(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}

// formatWindow renders a window length in seconds the way operators say
// it ("5m", "1h").
func formatWindow(seconds float64) string {
	d := time.Duration(seconds * float64(time.Second))
	switch {
	case d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return fmt.Sprintf("%ds", d/time.Second)
	}
}
