package main

import (
	"bufio"
	"bytes"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"socialchain/internal/storage"
)

// stageSum accumulates one tx_stage_seconds stage over every series.
type stageSum struct {
	sum   time.Duration
	count int64
}

// counters is a point-in-time read of everything the program exposes
// about its layers. Deltas between two reads give a timed phase's work.
type counters struct {
	ledgerTotal, ledgerValid int // peer 0's chain
	verifyHits, verifyMisses int64
	blocksRecv, bytesRecv    uint64 // bitswap, summed over IPFS nodes
	store                    storage.PersistStats
	viewChanges              int // most view changes any replica completed
	stages                   map[string]stageSum
}

// readCounters snapshots d's counters. Storage stats sum over the state
// and history store of every peer; stage histograms are read only from a
// traced deployment.
func readCounters(d *deployment) counters {
	var c counters
	ch := d.fw.Net.DefaultChannel()
	ls := ch.Peer(0).Ledger().Stats()
	c.ledgerTotal, c.ledgerValid = ls.TotalTxs, ls.ValidTxs
	for i, p := range ch.Peers() {
		h, m := p.VerifyCacheStats()
		c.verifyHits += h
		c.verifyMisses += m
		for _, get := range []func() (storage.PersistStats, bool){p.State().StorageStats, p.History().StorageStats} {
			if st, ok := get(); ok {
				addPersist(&c.store, st)
			}
		}
		if vc := ch.Validator(i).ViewChanges(); vc > c.viewChanges {
			c.viewChanges = vc
		}
	}
	for _, n := range d.fw.Cluster.Nodes() {
		s := n.Bitswap().Stats()
		c.blocksRecv += s.BlocksReceived.Load()
		c.bytesRecv += s.BytesReceived.Load()
	}
	if d.reg != nil {
		c.stages = readStages(d)
	}
	return c
}

func addPersist(dst *storage.PersistStats, s storage.PersistStats) {
	dst.SSTables += s.SSTables
	dst.Flushes += s.Flushes
	dst.FlushedBytes += s.FlushedBytes
	dst.Compactions += s.Compactions
	dst.CompactedBytes += s.CompactedBytes
	dst.StallWaits += s.StallWaits
	dst.BloomChecks += s.BloomChecks
	dst.BloomSkips += s.BloomSkips
	dst.BlockReads += s.BlockReads
	dst.WALFsyncs += s.WALFsyncs
}

// readStages sums every tx_stage_seconds series by its stage label, read
// from the registry's text exposition.
func readStages(d *deployment) map[string]stageSum {
	var buf bytes.Buffer
	if err := d.reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	out := make(map[string]stageSum)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		isSum := strings.HasPrefix(line, "tx_stage_seconds_sum{")
		if !isSum && !strings.HasPrefix(line, "tx_stage_seconds_count{") {
			continue
		}
		_, rest, ok := strings.Cut(line, `stage="`)
		if !ok {
			continue
		}
		stage, _, _ := strings.Cut(rest, `"`)
		val := line[strings.LastIndexByte(line, ' ')+1:]
		s := out[stage]
		if isSum {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			s.sum += time.Duration(f * float64(time.Second))
		} else {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				continue
			}
			s.count += n
		}
		out[stage] = s
	}
	return out
}

// stageDelta returns the time and observations a stage gained between two
// reads.
func stageDelta(a, b counters, stage string) stageSum {
	return stageSum{sum: b.stages[stage].sum - a.stages[stage].sum, count: b.stages[stage].count - a.stages[stage].count}
}

// meanMs is the mean observation of a stage delta in milliseconds.
func (s stageSum) meanMs() float64 { return ratio(ms(s.sum), float64(s.count)) }

// diskUsage splits the bytes under a durable deployment's DataDir by what
// holds them.
type diskUsage struct {
	blockLog, stateDB, blockstore, other int64
}

func (u diskUsage) total() int64 { return u.blockLog + u.stateDB + u.blockstore + u.other }

// walkDisk sums regular-file sizes under dir: the peers' block logs
// (blocks.wal), their world state, history and index stores (db,
// history, index) and the IPFS blockstores and pin sets (ipfs/).
func walkDisk(dir string) (diskUsage, error) {
	var u diskUsage
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		parts := strings.Split(filepath.ToSlash(rel), "/")
		switch {
		case parts[0] == "ipfs":
			u.blockstore += info.Size()
		case e.Name() == "blocks.wal":
			u.blockLog += info.Size()
		case slices.Contains(parts, "db"), slices.Contains(parts, "history"), slices.Contains(parts, "index"):
			u.stateDB += info.Size()
		default:
			u.other += info.Size()
		}
		return nil
	})
	return u, err
}

// opTimes sums the timings the program returns for each kind of call, over
// one timed phase.
type opTimes struct {
	stores                                          int
	storeValidate, storeIPFS, storeChain, storeWall time.Duration
	retrieves                                       int
	retChain, retIPFS, retVerify                    time.Duration
	pages                                           int
	pageChain, pageWall                             time.Duration
}

// phase is what a workload's timed phase did, for the per-layer metrics.
type phase struct {
	before, after counters
	times         opTimes
	ops           int   // operations of the workload
	records       int   // records committed
	payloadBytes  int64 // payload bytes stored (ingest) or held (read_mix)
	disk          *diskUsage
	batches       int
	retries       int
}

// layerMetrics computes every per-layer metric from one timed phase. A
// layer the workload did not exercise reads 0.
func layerMetrics(p phase) map[string]float64 {
	t := p.times
	a, b := p.before, p.after
	m := map[string]float64{
		"core.store_validate_ms":        ratio(ms(t.storeValidate), float64(t.stores)),
		"core.store_ipfs_ms":            ratio(ms(t.storeIPFS), float64(t.stores)),
		"core.store_chain_ms":           ratio(ms(t.storeChain), float64(t.stores)),
		"core.store_unattributed_ms":    ratio(ms(t.storeWall-t.storeValidate-t.storeIPFS-t.storeChain), float64(t.stores)),
		"query.retrieve_chain_ms":       ratio(ms(t.retChain), float64(t.retrieves)),
		"query.retrieve_ipfs_ms":        ratio(ms(t.retIPFS), float64(t.retrieves)),
		"query.retrieve_verify_ms":      ratio(ms(t.retVerify), float64(t.retrieves)),
		"query.page_chain_ms":           ratio(ms(t.pageChain), float64(t.pages)),
		"query.page_decode_ms":          ratio(ms(t.pageWall-t.pageChain), float64(t.pages)),
		"bitswap.blocks_per_retrieve":   ratio(float64(b.blocksRecv-a.blocksRecv), float64(t.retrieves)),
		"bitswap.bytes_per_retrieve":    ratio(float64(b.bytesRecv-a.bytesRecv), float64(t.retrieves)),
		"fabric.endorse_ms":             stageDelta(a, b, "endorse").meanMs(),
		"fabric.order_ms":               stageDelta(a, b, "order").meanMs(),
		"fabric.commit_wait_ms":         stageDelta(a, b, "commit_wait").meanMs(),
		"peer.endorse_exec_ms":          stageDelta(a, b, "endorse_exec").meanMs(),
		"peer.validate_ms":              stageDelta(a, b, "validate").meanMs(),
		"peer.commit_ms":                stageDelta(a, b, "commit").meanMs(),
		"consensus.decide_ms":           stageDelta(a, b, "consensus_decide").meanMs(),
		"consensus.view_changes":        float64(b.viewChanges - a.viewChanges),
		"ledger.valid_tx_ratio":         ratio(float64(b.ledgerValid-a.ledgerValid), float64(b.ledgerTotal-a.ledgerTotal)),
		"ordering.envelopes_per_record": ratio(float64(b.ledgerTotal-a.ledgerTotal), float64(p.records)),
		"ingest.records_per_batch":      ratio(float64(p.records), float64(p.batches)),
		"ingest.conflict_retries":       float64(p.retries),
		"msp.verify_cache_hit_ratio": ratio(float64(b.verifyHits-a.verifyHits),
			float64(b.verifyHits-a.verifyHits+b.verifyMisses-a.verifyMisses)),
		"storage.wal_fsyncs_per_record": ratio(float64(b.store.WALFsyncs-a.store.WALFsyncs), float64(p.records)),
		"storage.stall_waits":           float64(b.store.StallWaits - a.store.StallWaits),
		"storage.write_amp": ratio(float64(b.store.FlushedBytes-a.store.FlushedBytes+b.store.CompactedBytes-a.store.CompactedBytes),
			float64(p.payloadBytes)),
		"storage.bloom_skip_ratio":     ratio(float64(b.store.BloomSkips-a.store.BloomSkips), float64(b.store.BloomChecks-a.store.BloomChecks)),
		"storage.block_reads_per_read": ratio(float64(b.store.BlockReads-a.store.BlockReads), float64(p.ops)),
		"storage.sstables":             float64(b.store.SSTables),
	}
	if p.disk != nil {
		m["ledger.log_bytes_per_payload_byte"] = ratio(float64(p.disk.blockLog), float64(p.payloadBytes))
		m["statedb.bytes_per_payload_byte"] = ratio(float64(p.disk.stateDB), float64(p.payloadBytes))
		m["blockstore.bytes_per_payload_byte"] = ratio(float64(p.disk.blockstore), float64(p.payloadBytes))
	} else {
		m["ledger.log_bytes_per_payload_byte"] = 0
		m["statedb.bytes_per_payload_byte"] = 0
		m["blockstore.bytes_per_payload_byte"] = 0
	}
	return m
}
