package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/core"
	"socialchain/internal/detect"
	"socialchain/internal/ingest"
	"socialchain/internal/query"
)

// readClients is the number of closed-loop read clients: one per CPU of
// the 2-vCPU machine the load is sized for.
const readClients = 2

// pageLimit is the read_mix page size.
const pageLimit = 20

// preloadConfig is the pipelined preset with one batch in flight: a single
// source's batches form a serial MVCC chain through its provenance head,
// so a second in-flight batch only burns consensus rounds, and larger
// batches keep the three set-ups of a run short.
var preloadConfig = ingest.Config{Mode: ingest.ModePipelined, MaxInFlight: 1, BatchSize: 250}

// stored is one preloaded record as the benchmark knows it.
type stored struct {
	id, hash, label string
}

// runReadMix preloads records through pipelined ingest into the durable
// deployment (enough to outgrow the memtable, so reads hit SSTables),
// waits for compaction to drain, and then runs two closed-loop clients:
// 60% verified RetrieveData of a Zipf-skewed record, 20% Metadata of a
// never-written ID, 20% a label-index Page. The deployment has LAN delay:
// with zero delay every read is pure processor time, and on a shared
// host whose speed drifts by a fifth from minute to minute its latency
// then varies between runs by more than any usable bound.
func runReadMix(p params) (*result, error) {
	src := newSources(p.seed)
	gen := newInputGen(p.seed)
	records := make([]ingest.Record, p.preload)
	for i := range records {
		in := gen.make(src.cam, p.recordSize)
		records[i] = ingest.Record{Signed: in.signed, Meta: in.meta}
	}
	absent := make([][]string, readClients)
	idRNG := rand.New(rand.NewSource(p.seed ^ 0xab5e))
	for c := range absent {
		for i := 0; i < p.absentIDs; i++ {
			var b [32]byte
			idRNG.Read(b[:])
			absent[c] = append(absent[c], hex.EncodeToString(b[:])+".0")
		}
	}

	var preloaded []stored
	var held int64
	// pre is the last set-up's preload, the durable write path this
	// workload's write-side per-layer metrics are read over.
	var pre phase
	var preTook time.Duration
	preload := func(d *deployment) error {
		start := time.Now()
		pre = phase{before: readCounters(d), records: len(records)}
		pipe := d.fw.Client(src.cam, 0).Pipeline(preloadConfig)
		res := pipe.Run(records)
		preloaded, held = preloaded[:0], 0
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("preload record %d: %w", i, r.Err)
			}
			m := records[i].Meta
			preloaded = append(preloaded, stored{id: r.RecordID, hash: m.DataHash, label: m.PrimaryLabel()})
			held += int64(len(records[i].Signed.Payload))
		}
		if _, err := equalHeights(d, 30*time.Second); err != nil {
			return err
		}
		if err := d.settle(60 * time.Second); err != nil {
			return err
		}
		preTook = time.Since(start)
		st := pipe.Stats()
		pre.after, pre.payloadBytes, pre.batches, pre.retries = readCounters(d), held, st.Batches, st.ConflictRetries
		return nil
	}
	c := deployConfig{seed: p.seed, lan: true, traced: p.traced}
	d, setup, err := setupRuns(p.setups, c, src, filepath.Join(p.workDir, "data"), preload)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d.cfg.dir)
	defer d.close()
	r := &result{workload: "read_mix", setup: setup, env: envLine("lan(50-300us)", true)}
	if p.traced {
		r.tr = newTracer()
	}
	disk, err := walkDisk(d.cfg.dir)
	if err != nil {
		return nil, err
	}
	pre.disk = &disk
	labels := labelsOf(preloaded)

	type clientOut struct {
		retLat, absLat, pageLat, all, tracedLat, plainLat latencies
		t                                                 opTimes
		ops, attempted                                    int
		payload                                           int64
		failures                                          []string
		failed                                            int
	}
	outs := make([]clientOut, readClients)
	before := readCounters(d)
	start := time.Now()
	deadline := start.Add(p.timed)
	var wg sync.WaitGroup
	for ci := 0; ci < readClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			o := &outs[ci]
			cl := d.fw.Client(src.cam, 0)
			rng := rand.New(rand.NewSource(p.seed*31 + int64(ci)))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(preloaded)-1))
			perm := rand.New(rand.NewSource(p.seed)).Perm(len(preloaded))
			fail := func(err error) {
				o.failed++
				if len(o.failures) < 10 {
					o.failures = append(o.failures, err.Error())
				}
			}
			for i := 0; time.Now().Before(deadline); i++ {
				var tr *tracer
				if i%2 == 1 {
					tr = r.tr
				}
				o.attempted++
				pick := rng.Float64()
				var t0, t1 time.Time
				switch {
				case pick < 0.6:
					want := preloaded[perm[zipf.Uint64()]]
					t0 = time.Now()
					res, err := cl.RetrieveData(want.id)
					t1 = time.Now()
					if err := checkRetrieve(want, res, err); err != nil {
						fail(err)
						continue
					}
					o.retLat = append(o.retLat, t1.Sub(t0))
					o.t.retrieves++
					o.t.retChain += res.Timing.Blockchain
					o.t.retIPFS += res.Timing.IPFS
					o.t.retVerify += res.Timing.Verify
					o.payload += int64(len(res.Payload))
					if tr != nil {
						op := tr.op()
						traceRetrieve(tr, op, tr.add(op, 0, "read.retrieve", t0, t1), res.Timing)
					}
				case pick < 0.8:
					id := absent[ci][i%len(absent[ci])]
					t0 = time.Now()
					rec, err := cl.Query().Metadata(id)
					t1 = time.Now()
					if err := checkAbsent(id, rec, err); err != nil {
						fail(err)
						continue
					}
					o.absLat = append(o.absLat, t1.Sub(t0))
					if tr != nil {
						tr.add(tr.op(), 0, "read.absent", t0, t1)
					}
				default:
					label := labels[rng.Intn(len(labels))]
					t0 = time.Now()
					page, err := cl.Query().Page(contracts.IndexLabel, label, pageLimit, "")
					t1 = time.Now()
					if err := checkPage(label, page, err); err != nil {
						fail(err)
						continue
					}
					o.pageLat = append(o.pageLat, t1.Sub(t0))
					o.t.pages++
					o.t.pageChain += page.Timing.Blockchain
					o.t.pageWall += t1.Sub(t0)
					if tr != nil {
						op := tr.op()
						tr.fromStart(op, tr.add(op, 0, "read.page", t0, t1), part{"query.page_chain", page.Timing.Blockchain},
							part{"query.page_decode", t1.Sub(t0) - page.Timing.Blockchain})
					}
				}
				o.ops++
				o.all = append(o.all, t1.Sub(t0))
				if tr != nil {
					o.tracedLat = append(o.tracedLat, t1.Sub(t0))
				} else {
					o.plainLat = append(o.plainLat, t1.Sub(t0))
				}
			}
		}(ci)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	after := readCounters(d)

	var retLat, absLat, pageLat, tracedLat, plainLat latencies
	var t opTimes
	for _, o := range outs {
		r.attempted += o.attempted
		r.ops += o.ops
		r.payload += o.payload
		r.opLat = append(r.opLat, o.all...)
		retLat = append(retLat, o.retLat...)
		absLat = append(absLat, o.absLat...)
		pageLat = append(pageLat, o.pageLat...)
		tracedLat = append(tracedLat, o.tracedLat...)
		plainLat = append(plainLat, o.plainLat...)
		t.retrieves += o.t.retrieves
		t.retChain += o.t.retChain
		t.retIPFS += o.t.retIPFS
		t.retVerify += o.t.retVerify
		t.pages += o.t.pages
		t.pageChain += o.t.pageChain
		t.pageWall += o.t.pageWall
		r.failed += o.failed
		for _, f := range o.failures {
			if len(r.failures) < 10 {
				r.failures = append(r.failures, f)
			}
		}
	}
	r.layers = layerMetrics(phase{before: before, after: after, times: t, ops: r.ops})
	for name, v := range layerMetrics(pre) {
		if writePath[name] {
			r.layers[name] = v
		}
	}
	r.overheadMs, r.untracedMs = overhead(tracedLat, plainLat)
	r.figures = append(commonFigures(r),
		figure{"reads_per_s", ratio(float64(r.ops), r.elapsed.Seconds()), "1/s", fmt.Sprintf("%d clients, %d records preloaded", readClients, len(preloaded))},
		figure{"preload_records_per_s", ratio(float64(len(preloaded)), preTook.Seconds()), "1/s", "last set-up, settle included"},
		figure{"bytes_per_payload_byte", ratio(float64(disk.total()), float64(held)), "B/B",
			fmt.Sprintf("%d bytes on disk for %d preloaded payload bytes", disk.total(), held)},
		pctFigure("retrieve_p50_ms", retLat, 50),
		pctFigure("retrieve_p99_ms", retLat, 99),
		pctFigure("page_p50_ms", pageLat, 50),
		pctFigure("absent_p50_ms", absLat, 50),
	)
	return r, nil
}

// checkRetrieve verifies a read of a preloaded record: it must succeed,
// be verified, and carry a payload whose hash is the record's and the
// one the benchmark generated.
func checkRetrieve(want stored, res *core.RetrieveResult, err error) error {
	if err != nil {
		return fmt.Errorf("retrieve %s: %w", want.id, err)
	}
	if !res.Verified {
		return fmt.Errorf("retrieve %s: not verified", want.id)
	}
	if got := hashOf(res.Payload); got != res.Record.DataHash || got != want.hash {
		return fmt.Errorf("retrieve %s: payload hash %.12s, record %.12s, stored %.12s", want.id, got, res.Record.DataHash, want.hash)
	}
	return nil
}

// hashOf is the hex SHA-256 a record's data_hash holds.
func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkAbsent verifies a lookup of a never-written ID came back empty.
func checkAbsent(id string, rec contracts.DataRecord, err error) error {
	if err == nil || rec.TxID != "" || rec.CID != "" {
		return fmt.Errorf("absent id %s: %w", id, errAbsentFound)
	}
	return nil
}

var errAbsentFound = errors.New("never-written id returned a record")

// checkPage verifies one label-index page: at most pageLimit records, at
// least one (every queried label was preloaded), all with the label.
func checkPage(label string, page *query.PageResult, err error) error {
	if err != nil {
		return fmt.Errorf("page %q: %w", label, err)
	}
	if n := len(page.Records); n == 0 || n > pageLimit {
		return fmt.Errorf("page %q: %d records, want 1 to %d", label, n, pageLimit)
	}
	for _, rec := range page.Records {
		if rec.Label != label {
			return fmt.Errorf("page %q: record %s has label %q", label, rec.TxID, rec.Label)
		}
	}
	return nil
}

// labelsOf returns the distinct primary labels of the preload, in the
// order detect.VehicleLabels lists them.
func labelsOf(recs []stored) []string {
	seen := make(map[string]bool)
	for _, s := range recs {
		seen[s.label] = true
	}
	var out []string
	for _, l := range detect.VehicleLabels {
		if seen[l] {
			out = append(out, l)
		}
	}
	return out
}
