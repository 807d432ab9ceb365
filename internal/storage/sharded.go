package storage

// The sharded engine stripes the key space over N independently locked
// maps. Point reads and writes touch exactly one stripe, so reads from
// concurrent clients no longer serialise behind a committing block — the
// contention profile the paper's concurrent store/retrieve evaluation
// stresses. Batched commits group writes by stripe and take each stripe
// lock exactly once per block.

import (
	"sort"
	"strings"
	"sync"
)

// shard is one lock stripe. The pad keeps neighbouring stripes off one
// cache line so uncontended locks do not false-share.
type shard struct {
	mu   sync.RWMutex
	data map[string][]byte
	_    [24]byte
}

// Sharded is the lock-striped engine.
type Sharded struct {
	shards []shard
	mask   uint64
}

// maxShards caps the stripe count; it bounds the stack bitmap ApplyBatch
// uses to visit each touched stripe exactly once.
const maxShards = 1024

// NewSharded returns an empty sharded engine with n stripes, rounded up to
// a power of two (n <= 0 selects DefaultShards; n > 1024 is clamped).
func NewSharded(n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Sharded{shards: make([]shard, size), mask: uint64(size - 1)}
	for i := range s.shards {
		s.shards[i].data = make(map[string][]byte)
	}
	return s
}

// fnv1a64 hashes a key (FNV-1a, inlined to avoid a hash.Hash allocation on
// every access).
func fnv1a64(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

func (s *Sharded) shardFor(key string) *shard {
	return &s.shards[fnv1a64(key)&s.mask]
}

// Get implements KV.
func (s *Sharded) Get(key string) ([]byte, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.data[key]
	return v, ok
}

// Put implements KV.
func (s *Sharded) Put(key string, value []byte) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, existed := sh.data[key]
	sh.data[key] = value
	return !existed
}

// Delete implements KV.
func (s *Sharded) Delete(key string) ([]byte, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.data[key]
	if ok {
		delete(sh.data, key)
	}
	return v, ok
}

// IterPrefix implements KV: each stripe is read-locked in turn while its
// matches are collected, the union is sorted, and fn runs lock-free. The
// view is per-stripe consistent but NOT a cross-stripe point-in-time
// snapshot: a batch committing concurrently may appear in the stripes
// collected after it touched them and be absent from those collected
// before — weaker than the seed's global lock, which excluded scans for
// whole commits. The layers above tolerate this by construction: the
// world state records every read's version and MVCC validation at commit
// rejects transactions whose reads a concurrent block invalidated, and
// peers snapshot for state-equality only at quiesced heights.
func (s *Sharded) IterPrefix(prefix string, fn func(key string, value []byte) bool) {
	var entries []entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		entries = collectPrefix(sh.data, prefix, entries)
		sh.mu.RUnlock()
	}
	sortEntries(entries)
	for _, e := range entries {
		if !fn(e.key, e.value) {
			return
		}
	}
}

// ApplyBatch implements KV: writes are grouped by stripe, then each
// touched stripe is locked exactly once and its group applied in batch
// order, so a block commit costs at most one lock acquisition per stripe
// regardless of how many transactions it carries. Stripe indices live in a
// stack buffer for block-sized batches, keeping the commit path
// allocation-free.
func (s *Sharded) ApplyBatch(writes []Write) {
	if len(writes) == 0 {
		return
	}
	var idxBuf [128]uint16
	idxs := idxBuf[:0]
	if len(writes) > len(idxBuf) {
		idxs = make([]uint16, 0, len(writes))
	}
	for i := range writes {
		idxs = append(idxs, uint16(fnv1a64(writes[i].Key)&s.mask))
	}
	var done [maxShards / 64]uint64 // stripes already applied
	for i, idx := range idxs {
		if done[idx>>6]&(1<<(idx&63)) != 0 {
			continue
		}
		done[idx>>6] |= 1 << (idx & 63)
		sh := &s.shards[idx]
		sh.mu.Lock()
		for j := i; j < len(writes); j++ {
			if idxs[j] != idx {
				continue
			}
			if writes[j].Delete {
				delete(sh.data, writes[j].Key)
				continue
			}
			sh.data[writes[j].Key] = writes[j].Value
		}
		sh.mu.Unlock()
	}
}

// Sync implements KV; the in-memory engine has nothing to flush.
func (s *Sharded) Sync() error { return nil }

// Close implements KV; the in-memory engine holds no resources.
func (s *Sharded) Close() error { return nil }

// Len implements KV.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.data)
		sh.mu.RUnlock()
	}
	return n
}

// entry is one collected (key, value) pair of an iteration.
type entry struct {
	key   string
	value []byte
}

// collectPrefix appends all prefix-matching pairs of data to dst. Caller
// holds the lock guarding data.
func collectPrefix(data map[string][]byte, prefix string, dst []entry) []entry {
	for k, v := range data {
		if strings.HasPrefix(k, prefix) {
			dst = append(dst, entry{key: k, value: v})
		}
	}
	return dst
}

func sortEntries(entries []entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
}
