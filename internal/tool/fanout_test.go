package tool

import (
	"context"
	"errors"
	"testing"

	"acstab/internal/acerr"
	"acstab/internal/analysis"
	"acstab/internal/circuits"
)

// TestFanOutCanceled: a canceled ctx stops dense and adaptive all-nodes
// runs on four workers with acerr.ErrCanceled and leaves no worker
// counted busy.
func TestFanOutCanceled(t *testing.T) {
	for _, coarse := range []int{0, 8} {
		opts := DefaultOptions()
		opts.Workers = 4
		opts.CoarsePointsPerDecade = coarse
		tl, err := New(circuits.ResonatorField(4, 1e6, 0.3), opts)
		if err != nil {
			t.Fatal(err)
		}
		// Solve the operating point first so the cancellation lands in
		// the sweep workers, not in Newton.
		if _, err := tl.ensureOP(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := tl.AllNodes(ctx); !errors.Is(err, acerr.ErrCanceled) {
			t.Errorf("coarse-ppd %d: err = %v, want ErrCanceled", coarse, err)
		}
		if busy := mWorkersBusy.Value(); busy != 0 {
			t.Errorf("coarse-ppd %d: workers busy = %g after the run, want 0", coarse, busy)
		}
	}
}

// TestFanOutRootCause: when one chunk fails, its siblings are canceled
// and the failure itself is reported, not the cancellations it induced —
// even though the failing chunk is the last one.
func TestFanOutRootCause(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	tl, err := New(circuits.SecondOrder(0.3, 1e6), opts)
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected worker failure")
	const n = 8
	var canceled [n]bool
	err = tl.fanOut(context.Background(), n, func(ctx context.Context, sim *analysis.Sim, lo, hi int) error {
		if sim == tl.Sim {
			t.Error("parallel chunk ran on the Tool's own Sim, want a Fork")
		}
		if hi == n {
			return injected
		}
		<-ctx.Done()
		canceled[lo] = true
		return acerr.Canceled(ctx)
	})
	if err != injected {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	for lo := 0; lo < n-n/4; lo += n / 4 {
		if !canceled[lo] {
			t.Errorf("chunk at %d was not canceled", lo)
		}
	}
	if busy := mWorkersBusy.Value(); busy != 0 {
		t.Errorf("workers busy = %g after the run, want 0", busy)
	}

	// A single chunk runs on the Tool's own Sim.
	tl.Opts.Workers = 1
	if err := tl.fanOut(context.Background(), n, func(_ context.Context, sim *analysis.Sim, lo, hi int) error {
		if sim != tl.Sim || lo != 0 || hi != n {
			t.Errorf("serial chunk: own Sim %v, range [%d, %d)", sim == tl.Sim, lo, hi)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
