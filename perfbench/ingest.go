package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/fabric"
	"socialchain/internal/ingest"
	"socialchain/internal/msp"
	"socialchain/internal/query"
)

// runIngest drives the paper's trusted/untrusted write mix durably: a
// trusted camera on IPFS node 0 and an untrusted crowd contributor on IPFS
// node 1 each feed their own pipelined ingest.Pipeline (preset defaults)
// from one goroutine, with 4 KiB records, LAN delay, the persist engine
// and fsync on every acknowledged write. After the timed phase it checks
// the chain on every peer, closes the deployment, reopens it from its
// data directory and resolves a seeded sample of acknowledged records.
func runIngest(p params) (*result, error) {
	src := newSources(p.seed)
	gen := newInputGen(p.seed)
	signers := []*msp.Signer{src.cam, src.crowd}
	pools := make([][]ingest.Record, len(signers))
	for i := 0; i < p.pool; i++ {
		for s, signer := range signers {
			in := gen.make(signer, p.recordSize)
			pools[s] = append(pools[s], ingest.Record{Signed: in.signed, Meta: in.meta})
		}
	}
	c := deployConfig{seed: p.seed, lan: true, traced: p.traced}
	d, setup, err := setupRuns(p.setups, c, src, filepath.Join(p.workDir, "data"), nil)
	if err != nil {
		return nil, err
	}
	dataDir := d.cfg.dir
	defer os.RemoveAll(dataDir)
	closed := false
	defer func() {
		if !closed {
			_ = d.close()
		}
	}()
	r := &result{workload: "ingest", setup: setup, env: envLine("lan(50-300us)", true)}
	if p.traced {
		r.tr = newTracer()
	}

	before := readCounters(d)
	pipes := []*ingest.Pipeline{
		d.fw.Client(src.cam, 0).Pipeline(ingest.Config{}),
		d.fw.Client(src.crowd, 1).Pipeline(ingest.Config{}),
	}
	submitted := make([][]time.Time, len(pipes))
	results := make([][]ingest.Result, len(pipes))
	start := time.Now()
	deadline := start.Add(p.timed)
	var wg sync.WaitGroup
	for s, pipe := range pipes {
		pipe.Start()
		wg.Add(1)
		go func(s int, pipe *ingest.Pipeline) {
			defer wg.Done()
			for _, rec := range pools[s] {
				now := time.Now()
				if now.After(deadline) {
					break
				}
				if err := pipe.Submit(rec); err != nil {
					break
				}
				submitted[s] = append(submitted[s], now)
			}
			results[s] = pipe.Drain()
		}(s, pipe)
	}
	wg.Wait()
	r.elapsed = time.Since(start)

	var batches, retries int
	acked := make([]ingest.Result, 0)
	for s, pipe := range pipes {
		st := pipe.Stats()
		batches += st.Batches
		retries += st.ConflictRetries
		if len(submitted[s]) == len(pools[s]) {
			r.notes = append(r.notes, fmt.Sprintf("source %d used all %d prepared records before the deadline", s, len(pools[s])))
		}
		for _, res := range results[s] {
			r.attempted++
			if res.Err != nil {
				r.fail("source %d record %d: %v", s, res.Index, res.Err)
				continue
			}
			r.ops++
			r.payload += int64(p.recordSize)
			r.opLat = append(r.opLat, res.Latency)
			acked = append(acked, res)
		}
	}
	after := readCounters(d)

	ch := d.fw.Net.DefaultChannel()
	height, err := equalHeights(d, 30*time.Second)
	r.check("peers at equal height", err)
	for _, pr := range ch.Peers() {
		r.check("hash chain on "+pr.ID(), pr.Ledger().VerifyChain())
	}
	r.check("settle", d.settle(60*time.Second))
	disk, err := walkDisk(dataDir)
	r.check("walk data directory", err)

	ph := phase{before: before, after: after, ops: r.ops, records: r.ops, payloadBytes: r.payload,
		disk: &disk, batches: batches, retries: retries}
	r.layers = layerMetrics(ph)
	if r.tr != nil {
		var tracedLat, plainLat latencies
		for s := range pipes {
			for _, res := range results[s] {
				if res.Err != nil {
					continue
				}
				if res.Index%2 == 0 {
					plainLat = append(plainLat, res.Latency)
					continue
				}
				tracedLat = append(tracedLat, res.Latency)
				traceRecord(r.tr, ph, submitted[s][res.Index], res.Latency)
			}
		}
		r.overheadMs, r.untracedMs = overhead(tracedLat, plainLat)
	}

	r.check("close", d.close())
	closed = true
	c.dir = dataDir
	r.check("reopen", reopenCheck(c, src.cam, height, acked, p))

	r.figures = append(commonFigures(r),
		figure{"records_per_s", ratio(float64(r.ops), r.elapsed.Seconds()), "1/s", fmt.Sprintf("%d records from 2 sources", r.ops)},
		figure{"bytes_per_payload_byte", ratio(float64(disk.total()), float64(r.payload)), "B/B",
			fmt.Sprintf("%d bytes on disk for %d payload bytes", disk.total(), r.payload)},
		pctFigure("record_p50_ms", r.opLat, 50),
		pctFigure("record_p95_ms", r.opLat, 95),
	)
	return r, nil
}

// equalHeights waits until every peer of the channel reports the same
// height and returns it.
func equalHeights(d *deployment, timeout time.Duration) (uint64, error) {
	peers := d.fw.Net.DefaultChannel().Peers()
	deadline := time.Now().Add(timeout)
	for {
		lo, hi := peers[0].Height(), peers[0].Height()
		for _, pr := range peers[1:] {
			h := pr.Height()
			lo, hi = min(lo, h), max(hi, h)
		}
		if lo == hi {
			return hi, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("heights differ: lowest %d, highest %d", lo, hi)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reopenCheck reopens the blockchain network from the closed deployment's
// data directory and checks that every peer recovers at the height it
// was closed at and that a seeded sample of acknowledged records resolves
// to the CIDs they were acknowledged with. It opens the network rather
// than the whole framework because core.New re-runs its idempotent
// bootstrap transaction, which would add a block before the height could
// be read.
func reopenCheck(c deployConfig, signer *msp.Signer, height uint64, acked []ingest.Result, p params) error {
	cfg := c.coreConfig()
	fc, err := cfg.Resolve()
	if err != nil {
		return err
	}
	net, err := fabric.NewNetwork(fc)
	if err != nil {
		return err
	}
	var errs []error
	for _, cc := range contracts.All() {
		if err := net.Deploy(cc); err != nil {
			errs = append(errs, err)
		}
	}
	net.Start()
	for _, pr := range net.DefaultChannel().Peers() {
		if got := pr.Height(); got != height {
			errs = append(errs, fmt.Errorf("%s reopened at height %d, closed at %d", pr.ID(), got, height))
		}
	}
	qe := query.NewEngine(net.DefaultChannel().Gateway(signer), nil)
	rng := rand.New(rand.NewSource(p.seed))
	for i := 0; i < p.sample && len(acked) > 0; i++ {
		a := acked[rng.Intn(len(acked))]
		rec, err := qe.Metadata(a.RecordID)
		if err != nil {
			errs = append(errs, fmt.Errorf("record %s: %w", a.RecordID, err))
		} else if rec.CID != a.CID {
			errs = append(errs, fmt.Errorf("record %s: cid %s, acknowledged %s", a.RecordID, rec.CID, a.CID))
		}
	}
	if err := net.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// traceRecord records one committed record: its span runs from Submit to
// the commit acknowledgement, and its children are the mean fabric stages
// one of its envelopes spent (times the envelopes a committed batch
// needed), closing the span.
func traceRecord(tr *tracer, ph phase, submitted time.Time, latency time.Duration) {
	a, b := ph.before, ph.after
	envelopes := ratio(float64(b.ledgerTotal-a.ledgerTotal), float64(ph.batches))
	mean := func(stage string) time.Duration {
		s := stageDelta(a, b, stage)
		return time.Duration(ratio(float64(s.sum), float64(s.count)) * envelopes)
	}
	op := tr.op()
	root := tr.add(op, 0, "ingest.record", submitted, submitted.Add(latency))
	ids := tr.fromEnd(op, root,
		part{"fabric.endorse", mean("endorse")}, part{"fabric.order", mean("order")}, part{"fabric.commit_wait", mean("commit_wait")})
	tr.fromEnd(op, ids[2],
		part{"consensus.decide", mean("consensus_decide")}, part{"peer.validate", mean("validate")}, part{"peer.commit", mean("commit")})
}
