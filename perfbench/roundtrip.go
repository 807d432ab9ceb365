package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"socialchain/internal/cid"
	"socialchain/internal/core"
	"socialchain/internal/query"
	"socialchain/internal/sim"
)

// runRoundtrip reproduces Figures 5 and 6: one closed-loop client stores a
// payload through IPFS node 0 and reads it back through IPFS node 1, over
// the paper's size sweep in seeded order, on the in-memory default engine
// with LAN delay. The loop runs whole cycles of the sweep, so every run
// weighs each size equally; after each cycle, outside the timed time, the
// cycle's payloads are unpinned and collected on both nodes, which keeps
// memory bounded and makes every retrieve a first fetch over the network.
func runRoundtrip(p params) (*result, error) {
	src := newSources(p.seed)
	gen := newInputGen(p.seed)
	order := sim.NewRNG(p.seed ^ 0x5eed)
	d, setup, err := setupRuns(p.setups, deployConfig{seed: p.seed, lan: true, traced: p.traced}, src, "", nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	r := &result{workload: "roundtrip", setup: setup, env: envLine("lan(50-300us)", false)}
	writer := d.fw.Client(src.cam, 0)
	reader := d.fw.Client(d.fw.Admin, 1)
	if p.traced {
		r.tr = newTracer()
	}
	var storeLat, retLat latencies
	var t opTimes
	var tracedLat, plainLat latencies
	before := readCounters(d)
	for cycle := 0; r.elapsed < p.timed || cycle < 2; cycle++ {
		perm := order.Perm(len(p.sweep))
		ins := make([]input, len(perm))
		for i, j := range perm {
			ins[i] = gen.make(src.cam, p.sweep[j])
		}
		runtime.GC()
		tr := (*tracer)(nil)
		if cycle%2 == 1 {
			tr = r.tr
		}
		var stored []string
		start := time.Now()
		for _, in := range ins {
			r.attempted++
			var st0 counters
			if tr != nil {
				st0 = counters{stages: readStages(d)}
			}
			t0 := time.Now()
			rc, err := writer.StoreData(in.signed, in.meta)
			t1 := time.Now()
			if err != nil {
				r.fail("store %d bytes: %v", len(in.signed.Payload), err)
				continue
			}
			stored = append(stored, rc.CID)
			res, err := reader.RetrieveData(rc.TxID)
			t2 := time.Now()
			if err := checkRoundtrip(in, rc, res, err); err != nil {
				r.fail("%v", err)
				continue
			}
			r.ops++
			r.payload += 2 * int64(len(in.signed.Payload))
			storeLat = append(storeLat, t1.Sub(t0))
			retLat = append(retLat, t2.Sub(t1))
			r.opLat = append(r.opLat, t2.Sub(t0))
			t.stores++
			t.storeValidate += rc.Timing.Validate
			t.storeIPFS += rc.Timing.IPFS
			t.storeChain += rc.Timing.Blockchain
			t.storeWall += t1.Sub(t0)
			t.retrieves++
			t.retChain += res.Timing.Blockchain
			t.retIPFS += res.Timing.IPFS
			t.retVerify += res.Timing.Verify
			if tr == nil {
				plainLat = append(plainLat, t2.Sub(t0))
				continue
			}
			tracedLat = append(tracedLat, t2.Sub(t0))
			traceRoundtrip(tr, d, st0, t0, t1, t2, rc, res)
		}
		r.elapsed += time.Since(start)
		if err := release(d, stored); err != nil {
			return nil, err
		}
	}
	after := readCounters(d)
	r.layers = layerMetrics(phase{before: before, after: after, times: t, ops: r.ops, records: r.ops})
	r.overheadMs, r.untracedMs = overhead(tracedLat, plainLat)
	r.figures = append(commonFigures(r),
		pctFigure("store_p50_ms", storeLat, 50),
		pctFigure("store_p95_ms", storeLat, 95),
		pctFigure("retrieve_p50_ms", retLat, 50),
		pctFigure("retrieve_p95_ms", retLat, 95),
	)
	return r, nil
}

// checkRoundtrip verifies one store/retrieve pair: the read must succeed,
// be verified, name the stored CID and return the stored bytes.
func checkRoundtrip(in input, rc *core.StoreReceipt, res *core.RetrieveResult, err error) error {
	if err != nil {
		return fmt.Errorf("retrieve %s: %w", rc.TxID, err)
	}
	if !res.Verified {
		return fmt.Errorf("retrieve %s: not verified", rc.TxID)
	}
	if res.Record.CID != rc.CID {
		return fmt.Errorf("retrieve %s: cid %s, stored %s", rc.TxID, res.Record.CID, rc.CID)
	}
	if !bytes.Equal(res.Payload, in.signed.Payload) {
		return fmt.Errorf("retrieve %s: payload differs from the stored %d bytes", rc.TxID, len(in.signed.Payload))
	}
	return nil
}

// traceRoundtrip records one round trip's spans: the iteration, the two
// calls, the stages their returned timings name, and the fabric stages
// the store's transaction went through (stage histogram deltas around the
// iteration; only this client submits during the timed phase).
func traceRoundtrip(tr *tracer, d *deployment, st0 counters, t0, t1, t2 time.Time, rc *core.StoreReceipt, res *core.RetrieveResult) {
	st1 := counters{stages: readStages(d)}
	peers := float64(d.fw.Net.DefaultChannel().NumPeers())
	perPeer := func(stage string) time.Duration {
		return time.Duration(float64(stageDelta(st0, st1, stage).sum) / peers)
	}
	op := tr.op()
	root := tr.add(op, 0, "roundtrip", t0, t2)
	store := tr.add(op, root, "core.StoreData", t0, t1)
	ids := tr.fromEnd(op, store,
		part{"core.validate", rc.Timing.Validate}, part{"ipfs.add", rc.Timing.IPFS}, part{"core.chain", rc.Timing.Blockchain})
	ids = tr.fromEnd(op, ids[2],
		part{"fabric.endorse", stageDelta(st0, st1, "endorse").sum},
		part{"fabric.order", stageDelta(st0, st1, "order").sum},
		part{"fabric.commit_wait", stageDelta(st0, st1, "commit_wait").sum})
	tr.fromEnd(op, ids[2],
		part{"consensus.decide", perPeer("consensus_decide")},
		part{"peer.validate", perPeer("validate")},
		part{"peer.commit", perPeer("commit")})
	traceRetrieve(tr, op, tr.add(op, root, "core.RetrieveData", t1, t2), res.Timing)
}

// traceRetrieve records the three executor stages inside the retrieve
// call span call: the chain lookup opens the call, the IPFS fetch and
// hash check close it.
func traceRetrieve(tr *tracer, op, call int, t query.Timing) {
	tr.fromStart(op, call, part{"query.chain", t.Blockchain})
	tr.fromEnd(op, call, part{"query.ipfs", t.IPFS}, part{"query.verify", t.Verify})
}

// release unpins a cycle's payloads on the writer's node and collects
// both IPFS nodes.
func release(d *deployment, cids []string) error {
	n0 := d.fw.Cluster.Node(0)
	for _, s := range cids {
		c, err := cid.Parse(s)
		if err != nil {
			return err
		}
		n0.Unpin(c)
	}
	for _, n := range d.fw.Cluster.Nodes() {
		if _, err := n.GC(); err != nil {
			return fmt.Errorf("ipfs gc on %s: %w", n.Name(), err)
		}
	}
	return nil
}

// overhead returns the mean latency of traced operations minus that of
// untraced ones, and the untraced mean, in milliseconds.
func overhead(traced, plain latencies) (float64, float64) {
	if len(traced) == 0 || len(plain) == 0 {
		return 0, 0
	}
	u := ratio(ms(plain.sum()), float64(len(plain)))
	return ratio(ms(traced.sum()), float64(len(traced))) - u, u
}
