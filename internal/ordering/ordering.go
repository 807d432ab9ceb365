// Package ordering implements the ordering service of the permissioned
// blockchain: a block cutter that batches endorsed transactions by count,
// size and timeout, and a BFT-backed service that achieves total order on
// batches through the consensus validators, delivering identical batch
// sequences to every peer's committer.
package ordering

import (
	"encoding/json"
	"errors"
	"sync"
	"time"

	"socialchain/internal/ledger"
	"socialchain/internal/metrics"
	"socialchain/internal/obs"
	"socialchain/internal/sim"
)

// Proposer receives cut batches for total ordering. A local
// *consensus.Validator satisfies it directly; an out-of-process orderer
// daemon plugs in a remote proposer that ships the batch to a validator
// over the wire.
type Proposer interface {
	Propose(payload []byte)
}

// ErrStopped is returned by Submit after Stop: a stopped service would
// silently drop the transaction (its loop no longer cuts batches).
var ErrStopped = errors.New("ordering: service stopped")

// ErrBacklog is returned by Submit when the pending queue is at its
// MaxPendingTxs bound — the backpressure signal ingest clients react to
// (back off and resubmit) instead of growing the queue without limit.
var ErrBacklog = errors.New("ordering: pending queue full")

// CutterConfig tunes batching, analogous to Fabric's BatchSize/BatchTimeout.
type CutterConfig struct {
	// MaxMessages cuts a batch at this many transactions (default 10).
	MaxMessages int
	// MaxBytes cuts a batch when its encoded size would exceed this
	// (default 2 MiB).
	MaxBytes int
	// BatchTimeout cuts a non-empty batch after this delay (default 50ms).
	BatchTimeout time.Duration
	// MaxPendingTxs bounds the transactions buffered awaiting a cut.
	// Submissions arriving while a slow consensus proposal holds the
	// cutter back pile up here; at the bound Submit rejects with
	// ErrBacklog instead of growing the slice unboundedly (default 4096).
	MaxPendingTxs int
}

func (c *CutterConfig) fill() {
	if c.MaxMessages <= 0 {
		c.MaxMessages = 10
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 2 << 20
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 50 * time.Millisecond
	}
	if c.MaxPendingTxs <= 0 {
		c.MaxPendingTxs = 4096
	}
}

// Batch is the unit of ordering: a slice of endorsed transactions.
type Batch struct {
	Txs []ledger.Transaction `json:"txs"`
}

// Encode serialises a batch for consensus.
func (b Batch) Encode() []byte {
	enc, err := json.Marshal(b)
	if err != nil {
		panic("ordering: batch marshal: " + err.Error())
	}
	return enc
}

// DecodeBatch parses a batch payload.
func DecodeBatch(p []byte) (Batch, error) {
	var b Batch
	err := json.Unmarshal(p, &b)
	return b, err
}

// Service accepts transactions, cuts batches and proposes them through the
// local consensus validator. Decided batches arrive at the validator's
// Deliver callback (wired by the network assembly), not here.
type Service struct {
	cfg       CutterConfig
	validator Proposer
	clock     sim.Clock

	mu       sync.Mutex
	pending  []ledger.Transaction
	bytes    int
	oldest   time.Time // when the first pending tx entered the empty batch
	stopped  bool
	stopCh   chan struct{}
	doneCh   chan struct{}
	proposed int

	// rearm wakes the loop when the pending batch's deadline moves: a tx
	// started a batch (the tx that overflows a bytes cut always does), or
	// a count cut emptied one. Buffered so Submit never blocks and
	// repeated moves coalesce.
	rearm chan struct{}

	// cuts counts cut batches by reason; wait observes the oldest tx's
	// age at each cut. Dangling until Observe registers them.
	cuts [numCutReasons]*metrics.Counter
	wait *obs.Histogram
}

// cutReason names what made the cutter cut a batch.
type cutReason int

const (
	cutCount cutReason = iota
	cutBytes
	cutTimeout
	numCutReasons
)

var cutReasonNames = [numCutReasons]string{"count", "bytes", "timeout"}

// NewService creates an ordering front-end over a batch proposer
// (normally a consensus validator).
func NewService(cfg CutterConfig, v Proposer, clock sim.Clock) *Service {
	cfg.fill()
	if clock == nil {
		clock = sim.RealClock{}
	}
	s := &Service{
		cfg:       cfg,
		validator: v,
		clock:     clock,
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		rearm:     make(chan struct{}, 1),
	}
	s.Observe(nil) // dangling instruments until a registry is attached
	return s
}

// Start launches the batch-timeout loop.
func (s *Service) Start() { go s.loop() }

// Stop flushes nothing and stops the loop. Stopping twice is a no-op;
// subsequent Submits are rejected with ErrStopped.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stopCh)
	<-s.doneCh
}

// Submit enqueues one endorsed transaction for ordering. It rejects
// transactions after Stop (ErrStopped) and applies the MaxPendingTxs
// backpressure bound (ErrBacklog) so the pending queue cannot grow
// without limit while consensus is slow.
func (s *Service) Submit(tx ledger.Transaction) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	if len(s.pending) >= s.cfg.MaxPendingTxs {
		s.mu.Unlock()
		return ErrBacklog
	}
	size := len(tx.Bytes())
	// Cut on byte overflow before appending.
	if s.bytes+size > s.cfg.MaxBytes && len(s.pending) > 0 {
		s.cutLocked(cutBytes)
	}
	// The batch's age starts when a tx lands in it empty, so a tx that
	// follows a bytes cut does not inherit the cut batch's age.
	moved := false
	if len(s.pending) == 0 {
		s.oldest = s.clock.Now()
		moved = true
	}
	s.pending = append(s.pending, tx)
	s.bytes += size
	var cut Batch
	doCut := false
	if len(s.pending) >= s.cfg.MaxMessages {
		cut, doCut = s.takeLocked(cutCount)
		moved = true
	}
	s.mu.Unlock()
	if moved {
		select {
		case s.rearm <- struct{}{}:
		default:
		}
	}
	if doCut {
		s.propose(cut)
	}
	return nil
}

// cutLocked proposes the current pending batch; caller holds mu.
func (s *Service) cutLocked(why cutReason) {
	batch, ok := s.takeLocked(why)
	if !ok {
		return
	}
	s.mu.Unlock()
	s.propose(batch)
	s.mu.Lock()
}

// takeLocked empties the pending batch and records why and how long its
// oldest tx waited; caller holds mu.
func (s *Service) takeLocked(why cutReason) (Batch, bool) {
	if len(s.pending) == 0 {
		return Batch{}, false
	}
	s.cuts[why].Inc()
	s.wait.Observe(s.clock.Now().Sub(s.oldest))
	batch := Batch{Txs: s.pending}
	s.pending = nil
	s.bytes = 0
	return batch, true
}

func (s *Service) propose(b Batch) {
	s.mu.Lock()
	s.proposed++
	s.mu.Unlock()
	s.validator.Propose(b.Encode())
}

// Observe publishes the service's cutter instrumentation into an obs
// registry: queue depth (the backpressure picture), batches proposed,
// batches cut by reason and the oldest tx's wait at each cut — the share
// of a commit wait the cutter accounts for.
func (s *Service) Observe(reg *obs.Registry) {
	reg.GaugeFunc("ordering_pending_txs", "Transactions buffered awaiting a batch cut.", func() float64 {
		return float64(s.PendingTxs())
	})
	reg.CounterFunc("ordering_batches_proposed_total", "Batches proposed to consensus.", func() int64 {
		return int64(s.Proposed())
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	for why, name := range cutReasonNames {
		s.cuts[why] = reg.Counter("ordering_batches_cut_total", "Batches cut, by what triggered the cut.", obs.L("reason", name))
	}
	s.wait = reg.Histogram("ordering_batch_wait_seconds", "Age of a batch's oldest transaction when the batch is cut.", nil)
}

// Proposed reports how many batches this service has proposed.
func (s *Service) Proposed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proposed
}

// PendingTxs reports the number of transactions awaiting a cut.
func (s *Service) PendingTxs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// loop cuts a batch exactly BatchTimeout after its first tx arrived. It
// holds one timer while a batch is pending and none while the queue is
// empty; Submit wakes it through rearm whenever the deadline moves.
func (s *Service) loop() {
	defer close(s.doneCh)
	var timer <-chan time.Time
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.rearm:
		case <-timer:
			s.mu.Lock()
			// The timer may be stale: a count or bytes cut can have replaced
			// the batch it was armed for by a younger one.
			if len(s.pending) > 0 && s.clock.Now().Sub(s.oldest) >= s.cfg.BatchTimeout {
				s.cutLocked(cutTimeout)
			}
			s.mu.Unlock()
		}
		timer = s.arm()
	}
}

// arm returns a channel that fires when the pending batch times out, or
// nil — never ready in a select — when nothing is pending.
func (s *Service) arm() <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	return s.clock.After(s.oldest.Add(s.cfg.BatchTimeout).Sub(s.clock.Now()))
}
