package ordering

import (
	"sync"
	"testing"
	"time"

	"socialchain/internal/obs"
	"socialchain/internal/sim"
)

// recordingProposer collects proposed batches in order.
type recordingProposer struct {
	mu      sync.Mutex
	batches []Batch
}

func (r *recordingProposer) Propose(payload []byte) {
	b, err := DecodeBatch(payload)
	if err != nil {
		panic(err)
	}
	r.mu.Lock()
	r.batches = append(r.batches, b)
	r.mu.Unlock()
}

func (r *recordingProposer) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.batches)
}

// fakeClockService starts a cutter over a recording proposer on a fake
// clock, so a test decides exactly when time passes.
func fakeClockService(t *testing.T, cfg CutterConfig, reg *obs.Registry) (*Service, *recordingProposer, *sim.FakeClock) {
	t.Helper()
	clk := sim.NewFakeClock(time.Unix(1_700_000_000, 0))
	rec := &recordingProposer{}
	svc := NewService(cfg, rec, clk)
	svc.Observe(reg)
	svc.Start()
	t.Cleanup(svc.Stop)
	return svc, rec, clk
}

// assertStillPending gives a wrongly armed timer a moment of real time to
// cut, then checks that the batch is still waiting.
func assertStillPending(t *testing.T, svc *Service, rec *recordingProposer, batches, pending int) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	if got := rec.count(); got != batches {
		t.Fatalf("batches proposed = %d, want %d", got, batches)
	}
	if got := svc.PendingTxs(); got != pending {
		t.Fatalf("pending = %d, want %d", got, pending)
	}
}

// TestTimeoutCutIsExact checks the batch timer: a lone tx is cut when the
// clock reaches exactly BatchTimeout after it arrived, and not before.
func TestTimeoutCutIsExact(t *testing.T) {
	const timeout = 50 * time.Millisecond
	svc, rec, clk := fakeClockService(t, CutterConfig{MaxMessages: 100, BatchTimeout: timeout}, nil)
	if err := svc.Submit(testTx(t, "lone")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(timeout - time.Millisecond)
	assertStillPending(t, svc, rec, 0, 1)
	clk.Advance(time.Millisecond)
	waitFor(t, func() bool { return rec.count() == 1 }, 5*time.Second, "timeout cut at BatchTimeout")
}

// TestBytesCutRestartsBatchAge checks that the tx which overflows a batch
// starts the next batch with its own age: it waits a full BatchTimeout
// after the bytes cut instead of inheriting the cut batch's age.
func TestBytesCutRestartsBatchAge(t *testing.T) {
	const timeout = 50 * time.Millisecond
	a, b := testTx(t, "first"), testTx(t, "overflow")
	cfg := CutterConfig{MaxMessages: 100, MaxBytes: len(a.Bytes()) + len(b.Bytes()) - 1, BatchTimeout: timeout}
	svc, rec, clk := fakeClockService(t, cfg, nil)
	if err := svc.Submit(a); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Millisecond)
	if err := svc.Submit(b); err != nil {
		t.Fatal(err)
	}
	if got := rec.count(); got != 1 {
		t.Fatalf("bytes overflow did not cut: %d batches", got)
	}
	clk.Advance(timeout - time.Millisecond)
	assertStillPending(t, svc, rec, 1, 1)
	clk.Advance(time.Millisecond)
	waitFor(t, func() bool { return rec.count() == 2 }, 5*time.Second, "timeout cut of the tx after a bytes cut")
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if id := rec.batches[1].Txs[0].ID; id != "overflow" {
		t.Fatalf("second batch holds %q", id)
	}
}

// TestCutReasonAndWaitObserved checks the cutter's /metrics series: each
// cut counts under its reason and observes its oldest tx's age.
func TestCutReasonAndWaitObserved(t *testing.T) {
	const timeout = 50 * time.Millisecond
	reg := obs.NewRegistry()
	svc, rec, clk := fakeClockService(t, CutterConfig{MaxMessages: 2, BatchTimeout: timeout}, reg)

	if err := svc.Submit(testTx(t, "alone")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(timeout)
	waitFor(t, func() bool { return rec.count() == 1 }, 5*time.Second, "timeout cut")

	if err := svc.Submit(testTx(t, "pair-1")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(7 * time.Millisecond)
	if err := svc.Submit(testTx(t, "pair-2")); err != nil {
		t.Fatal(err)
	}
	if got := rec.count(); got != 2 {
		t.Fatalf("count cut missing: %d batches", got)
	}

	cuts := func(reason string) int64 {
		return reg.Counter("ordering_batches_cut_total", "", obs.L("reason", reason)).Load()
	}
	if c, b, to := cuts("count"), cuts("bytes"), cuts("timeout"); c != 1 || b != 0 || to != 1 {
		t.Fatalf("cuts count=%d bytes=%d timeout=%d, want 1 0 1", c, b, to)
	}
	wait := reg.Histogram("ordering_batch_wait_seconds", "", nil)
	if wait.Count() != 2 || wait.Sum() != timeout+7*time.Millisecond {
		t.Fatalf("batch wait count=%d sum=%v, want 2 and %v", wait.Count(), wait.Sum(), timeout+7*time.Millisecond)
	}
}
