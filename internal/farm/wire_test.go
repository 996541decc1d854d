package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"acstab/internal/obs"
)

func TestNormalizeDefaults(t *testing.T) {
	opts, err := (RequestOptions{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if opts.FStart <= 0 || opts.FStop <= opts.FStart || opts.PointsPerDecade <= 0 {
		t.Errorf("zero options did not take defaults: %+v", opts)
	}
	// Explicit values pass through (Workers: 1 is under the wire cap on
	// any machine).
	opts, err = (RequestOptions{FStartHz: 10, FStopHz: 1e6, PointsPerDecade: 7,
		Workers: 1, SkipNodes: []string{"x"}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if opts.FStart != 10 || opts.FStop != 1e6 || opts.PointsPerDecade != 7 ||
		opts.Workers != 1 || len(opts.SkipNodes) != 1 {
		t.Errorf("explicit options mangled: %+v", opts)
	}
}

// TestWireOptionsRoundTrip pins WireOptions as the inverse of
// Normalize: for any valid wire options, normalizing and mapping back
// returns every wire field unchanged, so a CLI or coordinator submission
// runs exactly the options its caller holds.
func TestWireOptionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := func() []string {
		var out []string
		for i := rng.Intn(3); i > 0; i-- {
			out = append(out, fmt.Sprintf("n%d", rng.Intn(100)))
		}
		return out
	}
	for i := 0; i < 500; i++ {
		in := RequestOptions{
			FStartHz:        float64(1 + rng.Intn(1000)),
			FStopHz:         float64(2000 + rng.Intn(1e9)),
			PointsPerDecade: 1 + rng.Intn(100),
			LoopTol:         rng.Float64(),
			Workers:         rng.Intn(MaxWireWorkers() + 1),
			SkipNodes:       names(),
			OnlyNodes:       names(),
		}
		if rng.Intn(2) == 0 {
			in.OnlySubckt = fmt.Sprintf("x%d", rng.Intn(4))
		}
		if rng.Intn(2) == 0 {
			in.CoarsePointsPerDecade = 1 + rng.Intn(in.PointsPerDecade)
		}
		opts, err := in.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out := WireOptions(opts); !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip changed the wire options:\n in  %+v\n out %+v", in, out)
		}
	}
}

// TestNormalizeWorkerClamp pins the server-side ceiling on wire-supplied
// worker counts: an absurd ask must not size a worker pool.
func TestNormalizeWorkerClamp(t *testing.T) {
	opts, err := (RequestOptions{Workers: 1 << 20}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if max := MaxWireWorkers(); opts.Workers != max {
		t.Errorf("workers = %d, want clamped to MaxWireWorkers() = %d", opts.Workers, max)
	}
	// An ask at or under the cap passes through untouched.
	opts, err = (RequestOptions{Workers: 1}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 1 {
		t.Errorf("workers = %d, want 1 (under the cap)", opts.Workers)
	}
}

// TestNormalizeRejectionMessages pins the wording of range rejections:
// every knob that accepts 0 as "server default" must say ">= 0" — the
// fstart_hz/fstop_hz messages used to claim "must be > 0" while the
// check only rejected negatives, telling a caller who sent a legal 0
// that their request was invalid.
func TestNormalizeRejectionMessages(t *testing.T) {
	for _, in := range []RequestOptions{
		{FStartHz: -1},
		{FStopHz: -1},
		{PointsPerDecade: -1},
		{LoopTol: -0.1},
	} {
		_, err := in.Normalize()
		if err == nil {
			t.Fatalf("%+v: no error", in)
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Fatalf("%+v: err = %v, want *FieldError", in, err)
		}
		if !strings.Contains(fe.Reason, "must be >= 0") {
			t.Errorf("%s: message %q does not say \"must be >= 0\"", fe.Field, fe.Reason)
		}
	}
}

func TestNormalizeFieldErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    RequestOptions
		field string
	}{
		{"negative fstart", RequestOptions{FStartHz: -1}, "fstart_hz"},
		{"negative fstop", RequestOptions{FStopHz: -1}, "fstop_hz"},
		{"inverted range", RequestOptions{FStartHz: 1e6, FStopHz: 10}, "fstop_hz"},
		{"negative ppd", RequestOptions{PointsPerDecade: -1}, "points_per_decade"},
		{"negative loop_tol", RequestOptions{LoopTol: -0.1}, "loop_tol"},
		{"negative workers", RequestOptions{Workers: -1}, "workers"},
		{"oversize grid", RequestOptions{PointsPerDecade: 1e9}, "points_per_decade"},
		{"unbounded span", RequestOptions{FStartHz: 1e-300, FStopHz: 1e300}, "points_per_decade"},
		{"oversize coarse grid", RequestOptions{FStartHz: 1, FStopHz: 1e30,
			CoarsePointsPerDecade: 5000, PointsPerDecade: 5000}, "coarse_points_per_decade"},
		{"coarse above ppd", RequestOptions{CoarsePointsPerDecade: 50}, "coarse_points_per_decade"},
		{"adaptive ppd above 10000", RequestOptions{FStartHz: 1e3, FStopHz: 1e6,
			CoarsePointsPerDecade: 8, PointsPerDecade: 20000}, "points_per_decade"},
	} {
		_, err := tc.in.Normalize()
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want *FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.name, fe.Field, tc.field)
		}
		// The wire mapping turns the field error into a 400 bad_option with
		// the field attributed.
		we := wireErrorFrom(err)
		if we.Status != 400 || we.Detail.Code != CodeBadOption || we.Detail.Field != tc.field {
			t.Errorf("%s: wire error %+v", tc.name, we)
		}
	}
}

// TestOversizeGridIs400: a request whose points_per_decade would build a
// billions-point grid is refused at decode with a 400 naming the field,
// before anything grid-sized is allocated. Left unchecked, the grid's
// allocation failure kills the whole worker process.
func TestOversizeGridIs400(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, we := DecodeRequest([]byte(`{"netlist": "x", "options": {"points_per_decade": 1000000000}}`))
	runtime.ReadMemStats(&after)
	if we == nil || we.Status != http.StatusBadRequest || we.Detail.Code != CodeBadOption || we.Detail.Field != "points_per_decade" {
		t.Fatalf("wire error %+v, want 400 bad_option on points_per_decade", we)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decode allocated %d bytes", grew)
	}

	// Through the handler: a grid one order above the cap (small enough
	// to be harmless if the check ever regressed) answers 400 too.
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	body := fmt.Sprintf(`{"netlist": %q, "options": {"points_per_decade": 200000}}`, "tank\nR1 t 0 1k\nC1 t 0 1n\n")
	code, resp := postJSON(t, srv, body)
	if code != http.StatusBadRequest || !strings.Contains(resp, CodeBadOption) || !strings.Contains(resp, "points_per_decade") {
		t.Errorf("status %d, body %q", code, resp)
	}
}

// TestRunRefusedOptionsAre400: options a run would refuse are refused at
// decode on both endpoints, as one 400 bad_option naming the wire field,
// before the netlist is parsed or compiled (the compile cache sees no
// miss) — not after the compile, as a 422 on /run or as one failed item
// per variant on /batch.
func TestRunRefusedOptionsAre400(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	misses := obs.GetCounter("acstab_cache_misses_total")
	before := misses.Value()
	opts := `"options": {"coarse_points_per_decade": 50}`
	code, body := postJSON(t, srv, fmt.Sprintf(`{"netlist": %q, %s}`, tankNetlist, opts))
	checkBadOption(t, "/run", code, body, "coarse_points_per_decade")
	code, _, body = postBatch(t, srv, fmt.Sprintf(`{"v": 2, "netlist": %q, "variants": [{}, {"label": "b"}], %s}`, tankNetlist, opts))
	checkBadOption(t, "/batch", code, body, "coarse_points_per_decade")
	if d := misses.Value() - before; d != 0 {
		t.Errorf("refused requests cost %d cache misses", d)
	}
}

// checkBadOption asserts a response is one 400 bad_option error body
// naming field.
func checkBadOption(t *testing.T, route string, code int, body, field string) {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || code != http.StatusBadRequest ||
		eb.Error.Code != CodeBadOption || eb.Error.Field != field {
		t.Errorf("%s: status %d body %q, want 400 bad_option on %s", route, code, body, field)
	}
}
