package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"socialchain/internal/walframe"
)

// The WAL record format (appendRecordFrame / parseRecords / decodeRecord)
// was introduced by the map-plus-WAL engine and is now the persist
// engine's log. The TestMapWAL* tests below replay a log into a plain map,
// the recovery that engine performed, so the codec and the walframe
// torn-tail rules are pinned independently of the LSM around them.

// tempLog returns the path of a fresh, not yet created log file.
func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), segPrefix+"1"+segSuffix)
}

// writeLog appends one framed record per batch to the log at path.
func writeLog(t *testing.T, path string, batches ...[]Write) {
	t.Helper()
	var buf []byte
	for _, b := range batches {
		buf = appendRecordFrame(buf, b)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayLog rebuilds the state a log holds into a map, truncating a torn
// tail the way the persist engine's last WAL file is recovered.
func replayLog(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, good, perr := parseRecords(data)
	state := make(map[string]string)
	for _, rec := range recs {
		if err := decodeRecord(rec, func(key string, val []byte, del bool) {
			if del {
				delete(state, key)
				return
			}
			state[key] = string(val)
		}); err != nil {
			return nil, err
		}
	}
	if perr != nil {
		if err := walframe.RecoverTail(path, data, good); err != nil {
			return nil, err
		}
	}
	return state, nil
}

// TestMapWALReopenRecoversState writes puts, deletes and a batch that
// overwrites itself, then requires the replayed log to match a model.
func TestMapWALReopenRecoversState(t *testing.T) {
	path := tempLog(t)
	want := make(map[string]string)
	var batches [][]Write
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("ns\x00key/%03d", i%120)
		v := fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", 64))
		batches = append(batches, []Write{{Key: k, Value: []byte(v)}})
		want[k] = v
	}
	for i := 0; i < 120; i += 3 {
		k := fmt.Sprintf("ns\x00key/%03d", i)
		batches = append(batches, []Write{{Key: k, Delete: true}})
		delete(want, k)
	}
	batches = append(batches, []Write{
		{Key: "batch/a", Value: []byte("1")},
		{Key: "batch/b", Value: []byte("2")},
		{Key: "batch/a", Delete: true},
	})
	want["batch/b"] = "2"
	writeLog(t, path, batches...)

	got, err := replayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d keys, want %d (or values differ)", len(got), len(want))
	}
}

// TestMapWALTornTailRecovery is the codec's crash-injection gate: a log
// whose final record is cut off (or corrupted) at EVERY byte offset must
// recover exactly the state up to the last fully-committed record — never
// an error, never a partial batch.
func TestMapWALTornTailRecovery(t *testing.T) {
	// A few committed writes, then one final batch record whose
	// truncation we sweep.
	build := func(path string) {
		t.Helper()
		writeLog(t, path,
			[]Write{{Key: "a", Value: []byte("alpha")}},
			[]Write{{Key: "b", Value: []byte("beta")}},
			[]Write{
				{Key: "c", Value: []byte("gamma")},
				{Key: "a", Delete: true},
				{Key: "d", Value: []byte("delta-" + strings.Repeat("z", 40))},
			})
	}

	refPath := tempLog(t)
	build(refPath)
	refSeg, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	// State after only the first two records (the final batch torn away).
	wantWithoutBatch := map[string]string{"a": "alpha", "b": "beta"}
	// State with the batch fully committed.
	wantWithBatch := map[string]string{"b": "beta", "c": "gamma", "d": "delta-" + strings.Repeat("z", 40)}

	recs, _, err := parseRecords(refSeg)
	if err != nil || len(recs) != 3 {
		t.Fatalf("reference log has %d records (err %v), want 3", len(recs), err)
	}
	batchStart := len(refSeg) - walframe.HeaderLen - len(recs[2])

	check := func(t *testing.T, path string, want map[string]string) {
		t.Helper()
		got, err := replayLog(path)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered state %v, want %v", got, want)
		}
	}

	// Sweep every truncation point inside the final record (batchStart =
	// the batch fully gone; len(refSeg)-1 = one byte short of committed).
	for cut := batchStart; cut < len(refSeg); cut++ {
		t.Run(fmt.Sprintf("truncate@%d", cut), func(t *testing.T) {
			path := tempLog(t)
			build(path)
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}
			check(t, path, wantWithoutBatch)
			// The torn tail must have been truncated away so the next
			// append produces a clean log; replay once more to prove it.
			if st, err := os.Stat(path); err != nil || st.Size() != int64(batchStart) {
				t.Fatalf("torn tail not truncated to %d: %v %v", batchStart, st, err)
			}
			check(t, path, wantWithoutBatch)
		})
	}

	// Corrupt (rather than cut) every byte of the final record: the CRC
	// must reject it and recovery lands on the last committed record.
	for off := batchStart; off < len(refSeg); off++ {
		t.Run(fmt.Sprintf("corrupt@%d", off), func(t *testing.T) {
			path := tempLog(t)
			data := append([]byte(nil), refSeg...)
			data[off] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, path, wantWithoutBatch)
		})
	}

	// An untouched log recovers the full state.
	t.Run("intact", func(t *testing.T) {
		path := tempLog(t)
		build(path)
		check(t, path, wantWithBatch)
	})
}

// TestMapWALAppendAfterTornTail proves writes continue cleanly after a
// torn-tail recovery: the truncated log accepts new records and a further
// replay sees both old and new state.
func TestMapWALAppendAfterTornTail(t *testing.T) {
	path := tempLog(t)
	writeLog(t, path,
		[]Write{{Key: "keep", Value: []byte("v1")}},
		[]Write{{Key: "torn", Value: []byte("lost")}})
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	got, err := replayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["torn"]; ok {
		t.Fatal("torn batch survived")
	}
	writeLog(t, path, []Write{{Key: "after", Value: []byte("v2")}})

	final, err := replayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := final["keep"]; !ok || v != "v1" {
		t.Fatalf("keep = %q/%v", v, ok)
	}
	if v, ok := final["after"]; !ok || v != "v2" {
		t.Fatalf("after = %q/%v", v, ok)
	}
}

// TestMapWALMidSegmentCorruptionIsFatal flips a byte in an EARLY record
// while committed records follow: recovery must refuse — and leave the
// file untruncated — instead of silently dropping the committed suffix.
// Only a genuine tail (nothing valid after the damage) may be cut.
func TestMapWALMidSegmentCorruptionIsFatal(t *testing.T) {
	path := tempLog(t)
	writeLog(t, path,
		[]Write{{Key: "first", Value: []byte(strings.Repeat("a", 40))}},
		[]Write{{Key: "second", Value: []byte(strings.Repeat("b", 40))}},
		[]Write{{Key: "third", Value: []byte(strings.Repeat("c", 40))}})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), data...)
	corrupted[walframe.HeaderLen+4] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayLog(path); err == nil {
		t.Fatal("mid-segment corruption recovered silently")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("failed recovery truncated the log: %d -> %d bytes", len(data), len(after))
	}
}
