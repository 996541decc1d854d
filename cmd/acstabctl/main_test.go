package main

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"acstab/internal/farm"
	"acstab/internal/fleet"
	"acstab/internal/obs"
)

const tankNetlist = `ctl tank
.param rq=318
R1 t 0 {rq}
L1 t 0 25.33u
C1 t 0 1n
`

func twoWorkers(t *testing.T) (*httptest.Server, *httptest.Server, *fleet.Fleet) {
	t.Helper()
	a := httptest.NewServer(farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)}))
	b := httptest.NewServer(farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)}))
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	return a, b, fleet.New(fleet.Config{Workers: []string{a.URL, b.URL}})
}

func postRun(t *testing.T, srv *httptest.Server) {
	t.Helper()
	body := `{"netlist":"` + strings.ReplaceAll(tankNetlist, "\n", `\n`) + `","trace_id":"tr-ctl"}`
	resp, err := srv.Client().Post(srv.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("run: status %d", resp.StatusCode)
	}
}

func TestStatusSmoke(t *testing.T) {
	a, b, fl := twoWorkers(t)
	postRun(t, a)
	postRun(t, b)

	var out bytes.Buffer
	if err := runStatus(context.Background(), &out, fl); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"WORKER", a.URL, b.URL, "up", "fleet: 2/2 up", "slo health"} {
		if !strings.Contains(text, want) {
			t.Errorf("status output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "down") {
		t.Errorf("no worker should be down:\n%s", text)
	}

	// One worker dies: status still renders, with the dead worker marked.
	b.Close()
	out.Reset()
	if err := runStatus(context.Background(), &out, fl); err != nil {
		t.Fatal(err)
	}
	text = out.String()
	if !strings.Contains(text, "down") || !strings.Contains(text, "fleet: 1/2 up") {
		t.Errorf("dead worker not reported:\n%s", text)
	}
}

func TestTopSmoke(t *testing.T) {
	a, _, fl := twoWorkers(t)
	postRun(t, a)

	var out bytes.Buffer
	if err := runTop(context.Background(), &out, fl, 10); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "merged counters (2 workers up)") {
		t.Errorf("top output missing merged header:\n%s", text)
	}
	// The run tally has its own summary line, so it shows however many
	// solver counters outrank it in the top-n table.
	m := regexp.MustCompile(`fleet runs: (\d+) runs, \d+ errors`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("top output missing the fleet runs line:\n%s", text)
	}
	if runs, _ := strconv.Atoi(m[1]); runs < 1 {
		t.Errorf("fleet runs = %d after a posted run, want >= 1:\n%s", runs, text)
	}
	if !strings.Contains(text, "P50") || !strings.Contains(text, "acstab_phase_duration_seconds") {
		t.Errorf("top output missing merged histograms:\n%s", text)
	}
}

func TestTopNoWorkers(t *testing.T) {
	fl := fleet.New(fleet.Config{Workers: []string{"http://127.0.0.1:1"}})
	var out bytes.Buffer
	if err := runTop(context.Background(), &out, fl, 10); err == nil {
		t.Error("top with nobody reachable should fail")
	}
}

func TestTailSmoke(t *testing.T) {
	a, _, fl := twoWorkers(t)
	postRun(t, a)

	var out bytes.Buffer
	if err := runTail(context.Background(), &out, fl, 0, true); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, a.URL+" ") || !strings.Contains(text, `"event":"run"`) {
		t.Errorf("tail output missing the run event:\n%s", text)
	}
	if !strings.Contains(text, `"trace_id":"tr-ctl"`) {
		t.Errorf("tail output missing trace correlation:\n%s", text)
	}
}

func TestSplitWorkers(t *testing.T) {
	got := splitWorkers(" http://a:1 , ,http://b:2,")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Errorf("splitWorkers = %v", got)
	}
}

// TestDerivedRatioGuards pins the zero-denominator behavior of every
// derived ratio the console prints: a cold fleet (no requests, no cache
// lookups, no sweeps) must render real numbers, never NaN or Inf.
func TestDerivedRatioGuards(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"ratio zero denominator", ratio(0, 0), 0},
		{"ratio cold hits", ratio(5, 0), 0},
		{"ratio normal", ratio(1, 4), 0.25},
		{"finiteOrZero NaN", finiteOrZero(math.NaN(), 1), 1},
		{"finiteOrZero +Inf", finiteOrZero(math.Inf(1), 0), 0},
		{"finiteOrZero -Inf", finiteOrZero(math.Inf(-1), 0), 0},
		{"finiteOrZero finite", finiteOrZero(0.75, 0), 0.75},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestFormatColumns pins the per-worker table cells: dashes before any
// activity, real numbers after.
func TestFormatColumns(t *testing.T) {
	var cold fleet.WorkerView
	if got := formatCache(cold); got != "-" {
		t.Errorf("cold cache cell = %q, want -", got)
	}
	if got := formatNumerics(cold); got != "-" {
		t.Errorf("cold numerics cell = %q, want -", got)
	}
	warm := fleet.WorkerView{CacheHits: 3, CacheMisses: 1, CacheEntries: 2}
	if got := formatCache(warm); got != "3/4 (2)" {
		t.Errorf("warm cache cell = %q, want 3/4 (2)", got)
	}
	warm.Numerics = &farm.StatuszNumerics{
		Residual:    obs.HistogramSnapshot{Count: 40, P99: 2.5e-13},
		Refinements: 3,
	}
	if got := formatNumerics(warm); got != "p99 2.5e-13/3" {
		t.Errorf("warm numerics cell = %q, want p99 2.5e-13/3", got)
	}
	// A numerics block with no measured points still renders the dash.
	warm.Numerics = &farm.StatuszNumerics{}
	if got := formatNumerics(warm); got != "-" {
		t.Errorf("empty numerics cell = %q, want -", got)
	}
}

// TestStatusColdStartNoNaN renders status and top against workers that
// have served nothing: every derived ratio must be pinned, so the output
// carries no NaN or Inf anywhere.
func TestStatusColdStartNoNaN(t *testing.T) {
	_, _, fl := twoWorkers(t)
	var out bytes.Buffer
	if err := runStatus(context.Background(), &out, fl); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "NUMERICS") {
		t.Errorf("status header missing NUMERICS column:\n%s", text)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(text, bad) {
			t.Errorf("cold status output contains %s:\n%s", bad, text)
		}
	}
	out.Reset()
	if err := runTop(context.Background(), &out, fl, 10); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out.String(), bad) {
			t.Errorf("cold top output contains %s:\n%s", bad, out.String())
		}
	}
}

// TestTopFleetResidualLine: after a run, top prints the fleet-wide
// residual quantile line sourced from the exact bucket-merged histogram.
func TestTopFleetResidualLine(t *testing.T) {
	a, _, fl := twoWorkers(t)
	postRun(t, a)
	var out bytes.Buffer
	if err := runTop(context.Background(), &out, fl, 10); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "fleet residual:") {
		t.Errorf("top output missing the fleet residual line:\n%s", text)
	}
	if !strings.Contains(text, "refinements") || !strings.Contains(text, "breaches") {
		t.Errorf("fleet residual line missing counters:\n%s", text)
	}
}
