package main

// metricSpec names one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
}

// endToEnd lists the metrics every untraced run prints, in BENCHMARK.json
// order. Every workload reports every one of them; each workload defines
// its "operation" (see workloads below), and the per-operation-kind
// figures the report prints beside them carry the finer names.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.2},
	{"payload_mb_per_s", "MB/s", "higher", 0.2},
	{"p50_ms", "ms", "lower", 0.2},
	{"p95_ms", "ms", "lower", 0.25},
}

// perLayer lists the metrics every traced run prints. A metric whose layer
// a workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	{Name: "core.store_validate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.store_ipfs_ms", Unit: "ms", Better: "lower"},
	{Name: "core.store_chain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.store_unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "query.retrieve_chain_ms", Unit: "ms", Better: "lower"},
	{Name: "query.retrieve_ipfs_ms", Unit: "ms", Better: "lower"},
	{Name: "query.retrieve_verify_ms", Unit: "ms", Better: "lower"},
	{Name: "query.page_chain_ms", Unit: "ms", Better: "lower"},
	{Name: "query.page_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "bitswap.blocks_per_retrieve", Unit: "count", Better: "lower"},
	{Name: "bitswap.bytes_per_retrieve", Unit: "B", Better: "lower"},
	{Name: "fabric.endorse_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.order_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.commit_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.endorse_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "consensus.decide_ms", Unit: "ms", Better: "lower"},
	{Name: "consensus.view_changes", Unit: "count", Better: "lower"},
	{Name: "ledger.valid_tx_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ordering.envelopes_per_record", Unit: "ratio", Better: "lower"},
	{Name: "ingest.records_per_batch", Unit: "count", Better: "higher"},
	{Name: "ingest.conflict_retries", Unit: "count", Better: "lower"},
	{Name: "msp.verify_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.wal_fsyncs_per_record", Unit: "ratio", Better: "lower"},
	{Name: "storage.stall_waits", Unit: "count", Better: "lower"},
	{Name: "storage.write_amp", Unit: "B/B", Better: "lower"},
	{Name: "storage.bloom_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.block_reads_per_read", Unit: "ratio", Better: "lower"},
	{Name: "storage.sstables", Unit: "count", Better: "lower"},
	{Name: "ledger.log_bytes_per_payload_byte", Unit: "B/B", Better: "lower"},
	{Name: "statedb.bytes_per_payload_byte", Unit: "B/B", Better: "lower"},
	{Name: "blockstore.bytes_per_payload_byte", Unit: "B/B", Better: "lower"},
}

// workloadSpec is one workload and what its operation is.
type workloadSpec struct {
	Name string
	Why  string
	Op   string
	// Declared workloads are the ones BENCHMARK.json lists and a
	// regression gate runs. An undeclared one runs on request only.
	Declared bool
}

var workloads = []workloadSpec{
	{"roundtrip", "Figs 5/6: one client stores then fetches each payload of the 16 KiB-8 MiB sweep; payload layers and consensus dominate, every read is a first fetch",
		"one StoreData of a payload through IPFS node 0 followed by its RetrieveData from IPFS node 1", true},
	{"read_mix", "durable store read side: Zipf-skewed verified gets, absent-ID lookups and label pages on SSTables, LAN delay; set-up is the durable pipelined write path",
		"one read: 60% verified RetrieveData, 20% absent-ID Metadata, 20% 20-record label Page", true},
	// ingest is not declared: it saturates both CPUs and the disk, and on
	// a shared 2-vCPU host its records/s and latency tail spread beyond
	// any allowed bound from run to run (host speed drift, fsync on every
	// write, and the two pipelines' MVCC conflicts making commit progress
	// erratic). read_mix's set-up and traced preload cover the same write
	// path.
	{"ingest", "two concurrent sources, trusted and untrusted, ingest 4 KiB records durably through default pipelines",
		"one 4 KiB record, from Submit to its commit acknowledgement", false},
}

// move records, for one per-layer metric, the end-to-end figures it
// should move and one it should leave alone. Figures are named
// "<metric> on <workload>"; besides the BENCHMARK.json metrics they use
// the per-kind figures the report prints.
type move struct {
	Metric string
	Moves  string
	Stays  string
}

// The transaction path (fabric, peers, consensus) runs under roundtrip's
// stores and read_mix's set-up (the preload); the durable write path only
// under the preload. read_mix's timed reads run neither, and roundtrip
// keeps nothing on disk.
const (
	chainMoves = "store_p50_ms, p50_ms on roundtrip; setup_s on read_mix; records_per_s on ingest"
	writeMoves = "setup_s on read_mix; records_per_s, bytes_per_payload_byte on ingest"
	readsOnly  = "p50_ms on read_mix"
	noDisk     = "p50_ms on roundtrip"
)

// moves is the prediction table later performance changes are judged
// against: a change that speeds up a layer should move the figures in
// Moves and leave the one in Stays unchanged.
var moves = []move{
	{"core.store_validate_ms", "store_p50_ms, p50_ms on roundtrip", readsOnly},
	{"core.store_ipfs_ms", "store_p50_ms, p50_ms on roundtrip", readsOnly},
	{"core.store_chain_ms", "store_p50_ms, p50_ms on roundtrip", readsOnly},
	{"core.store_unattributed_ms", "store_p95_ms, p95_ms on roundtrip", readsOnly},
	{"query.retrieve_chain_ms", "retrieve_p50_ms, p50_ms on read_mix", "setup_s on read_mix"},
	{"query.retrieve_ipfs_ms", "retrieve_p95_ms, p95_ms on roundtrip", "setup_s on read_mix"},
	{"query.retrieve_verify_ms", "retrieve_p95_ms, p95_ms on roundtrip", "setup_s on read_mix"},
	{"query.page_chain_ms", "page_p50_ms, p95_ms on read_mix", "p50_ms on roundtrip"},
	{"query.page_decode_ms", "page_p50_ms, p95_ms on read_mix", "p50_ms on roundtrip"},
	{"bitswap.blocks_per_retrieve", "retrieve_p50_ms, retrieve_p95_ms on roundtrip", readsOnly},
	{"bitswap.bytes_per_retrieve", "retrieve_p50_ms, retrieve_p95_ms on roundtrip", readsOnly},
	{"fabric.endorse_ms", chainMoves, readsOnly},
	{"fabric.order_ms", chainMoves, readsOnly},
	{"fabric.commit_wait_ms", chainMoves, readsOnly},
	{"peer.endorse_exec_ms", "store_p50_ms on roundtrip; retrieve_p50_ms, p50_ms on read_mix", "payload_mb_per_s on roundtrip"},
	{"peer.validate_ms", chainMoves, readsOnly},
	{"peer.commit_ms", chainMoves, readsOnly},
	{"consensus.decide_ms", chainMoves, readsOnly},
	{"consensus.view_changes", chainMoves, readsOnly},
	{"ledger.valid_tx_ratio", writeMoves, noDisk},
	{"ordering.envelopes_per_record", writeMoves, noDisk},
	{"ingest.records_per_batch", writeMoves, noDisk},
	{"ingest.conflict_retries", writeMoves, noDisk},
	{"msp.verify_cache_hit_ratio", chainMoves, readsOnly},
	{"storage.wal_fsyncs_per_record", writeMoves, noDisk},
	{"storage.stall_waits", writeMoves, noDisk},
	{"storage.write_amp", writeMoves, noDisk},
	{"storage.bloom_skip_ratio", "absent_p50_ms, p50_ms on read_mix", noDisk},
	{"storage.block_reads_per_read", "retrieve_p50_ms, p50_ms on read_mix", noDisk},
	{"storage.sstables", "retrieve_p50_ms, p50_ms on read_mix", noDisk},
	{"ledger.log_bytes_per_payload_byte", writeMoves, noDisk},
	{"statedb.bytes_per_payload_byte", writeMoves, noDisk},
	{"blockstore.bytes_per_payload_byte", writeMoves, noDisk},
}

// writePath lists the per-layer metrics that read_mix reads over its
// preload rather than over its timed reads, which write nothing.
var writePath = map[string]bool{
	"fabric.endorse_ms": true, "fabric.order_ms": true, "fabric.commit_wait_ms": true,
	"peer.validate_ms": true, "peer.commit_ms": true,
	"consensus.decide_ms": true, "consensus.view_changes": true,
	"ledger.valid_tx_ratio": true, "ordering.envelopes_per_record": true,
	"ingest.records_per_batch": true, "ingest.conflict_retries": true,
	"msp.verify_cache_hit_ratio":    true,
	"storage.wal_fsyncs_per_record": true, "storage.stall_waits": true, "storage.write_amp": true,
	"ledger.log_bytes_per_payload_byte": true, "statedb.bytes_per_payload_byte": true,
	"blockstore.bytes_per_payload_byte": true,
}
