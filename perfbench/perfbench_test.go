package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/core"
	"socialchain/internal/query"
)

// tinyParams shrinks every workload to a smoke run of well under a
// second of timed load.
func tinyParams(t *testing.T, traced bool) params {
	p := defaultParams(7, 1, traced, t.TempDir())
	p.timed = 300 * time.Millisecond
	p.setups = 2
	p.sweep = []int{1 << 10, 8 << 10}
	p.pool = 40
	p.preload = 40
	p.sample = 8
	p.absentIDs = 64
	return p
}

// lastJSON parses the report's final line.
func lastJSON(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return line
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			p := tinyParams(t, traced)
			res, err := runners[w.Name](p)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var out, errOut bytes.Buffer
			if code := report(&out, &errOut, res, p); code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s%s", w.Name, traced, code, out.String(), errOut.String())
			}
			line := lastJSON(t, out.String())
			if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
				t.Fatalf("%s traced=%v: %+v", w.Name, traced, line)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Fatalf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				checkBreakdown(t, w.Name, res.tr)
			}
		}
	}
}

// checkBreakdown asserts the traced rows, unattributed included, add up
// to the traced operations' total time.
func checkBreakdown(t *testing.T, name string, tr *tracer) {
	t.Helper()
	rows, total, ops := tr.breakdown()
	if ops == 0 || total <= 0 {
		t.Fatalf("%s: no traced operations", name)
	}
	var sum time.Duration
	for _, r := range rows {
		if r.self < 0 {
			t.Errorf("%s: row %s has negative self time %v", name, r.name, r.self)
		}
		sum += r.self
	}
	if rows[len(rows)-1].name != "unattributed" {
		t.Errorf("%s: last row is %q, want unattributed", name, rows[len(rows)-1].name)
	}
	if sum != total {
		t.Errorf("%s: rows sum to %v, operations took %v", name, sum, total)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var declared []workloadSpec
	for _, w := range workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
		if w.Declared {
			declared = append(declared, w)
		}
	}
	if len(b.Workloads) != len(declared) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark declares %d", len(b.Workloads), len(declared))
	}
	for i, w := range b.Workloads {
		if w.Name != declared[i].Name || w.Why != declared[i].Why {
			t.Errorf("workload %d: json %+v, benchmark %s %q", i, w, declared[i].Name, declared[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end %d: json %+v, benchmark %+v", i, m, s)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: json %+v, benchmark %+v", i, m, s)
		}
	}
	predicted := make(map[string]bool)
	for _, mv := range moves {
		predicted[mv.Metric] = true
	}
	for _, m := range perLayer {
		if !predicted[m.Name] {
			t.Errorf("per-layer metric %s has no entry in the moves table", m.Name)
		}
	}
	// Every per-layer metric computed by a workload is one BENCHMARK.json
	// declares, so a new counter cannot slip in unnamed.
	for name := range layerMetrics(phase{}) {
		if unitOf(name) == "" {
			t.Errorf("layerMetrics computes %s, which BENCHMARK.json does not declare", name)
		}
	}
}

func TestChecksCatchTamperingAndPhantomRecords(t *testing.T) {
	payload := []byte("frame bytes")
	in := input{}
	in.signed.Payload = payload
	rc := &core.StoreReceipt{TxID: "tx1", CID: "cid1"}
	good := &core.RetrieveResult{Record: contracts.DataRecord{TxID: "tx1", CID: "cid1"}, Payload: payload, Verified: true}
	if err := checkRoundtrip(in, rc, good, nil); err != nil {
		t.Fatalf("intact round trip rejected: %v", err)
	}
	tampered := *good
	tampered.Payload = []byte("frame bytez")
	r := &result{}
	r.attempted += 2
	if err := checkRoundtrip(in, rc, &tampered, nil); err != nil {
		r.fail("%v", err)
	}

	want := stored{id: "tx1", hash: hashOf(payload)}
	goodRead := &core.RetrieveResult{Record: contracts.DataRecord{TxID: "tx1", DataHash: want.hash}, Payload: payload, Verified: true}
	if err := checkRetrieve(want, goodRead, nil); err != nil {
		t.Fatalf("intact read rejected: %v", err)
	}
	tamperedRead := *goodRead
	tamperedRead.Payload = []byte("frame bytez")
	if err := checkRetrieve(want, &tamperedRead, nil); err == nil {
		t.Error("read with a tampered payload passed")
	}

	if err := checkAbsent("never", contracts.DataRecord{}, os.ErrNotExist); err != nil {
		t.Fatalf("correct not-found rejected: %v", err)
	}
	if err := checkAbsent("never", contracts.DataRecord{TxID: "never", CID: "c"}, nil); err != nil {
		r.fail("%v", err)
	}

	if err := checkPage("car", &query.PageResult{Records: []contracts.DataRecord{{Label: "car"}}}, nil); err != nil {
		t.Fatalf("correct page rejected: %v", err)
	}
	if err := checkPage("car", &query.PageResult{Records: []contracts.DataRecord{{Label: "bus"}}}, nil); err == nil {
		t.Error("page with a foreign label passed")
	}
	if err := checkPage("car", &query.PageResult{Records: make([]contracts.DataRecord, pageLimit+1)}, nil); err == nil {
		t.Error("oversized page passed")
	}

	if r.failed != 2 {
		t.Fatalf("caught %d of the tampered payload and the phantom record, want 2 (%v)", r.failed, r.failures)
	}
	var out, errOut bytes.Buffer
	r.workload = "roundtrip"
	if code := report(&out, &errOut, r, params{}); code == 0 {
		t.Error("a run with failed checks exited 0")
	}
	line := lastJSON(t, out.String())
	if line.Correct || line.Failed != 2 || line.Attempted != 2 {
		t.Errorf("result line %+v, want correct=false failed=2 attempted=2", line)
	}
}
