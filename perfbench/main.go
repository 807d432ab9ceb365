// Command perfbench is the repository's benchmark. It runs one workload of
// the paper's store/retrieve framework in-process, checks every answer,
// and prints the end-to-end metrics BENCHMARK.json declares (or, with
// -trace 1, the per-layer metrics and a per-layer breakdown of the
// operation time). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.py builds and calls this):
//
//	perfbench -workload roundtrip|ingest|read_mix -seed N -seconds S -trace 0|1 [-work-dir DIR]
//
// The benchmark only calls the program's public functions and reads what
// it already exposes: returned timings, component stats, the obs
// registry's stage histograms (traced runs only) and bytes on disk.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"socialchain/internal/storage"
	"socialchain/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// params sizes one run. defaultParams gives the benchmark's settings;
// tests shrink them.
type params struct {
	seed    int64
	timed   time.Duration // length of the timed phase
	traced  bool
	workDir string // data directories and traces go here
	// setups is how many times the deployment is built; setup_s is the
	// median.
	setups int
	// sweep is the roundtrip payload sizes, cycled in seeded order.
	sweep []int
	// recordSize is the ingest and read_mix payload size.
	recordSize int
	// pool is how many records each ingest source has ready; a run that
	// uses them all stops early and says so.
	pool int
	// preload is how many records read_mix writes before timing.
	preload int
	// sample is how many acknowledged ingest records are looked up again
	// after the durable deployment is reopened.
	sample int
	// absentIDs is how many never-written IDs each read_mix client has
	// ready.
	absentIDs int
}

func defaultParams(seed int64, seconds int, traced bool, workDir string) params {
	return params{
		seed:       seed,
		timed:      time.Duration(seconds) * time.Second,
		traced:     traced,
		workDir:    workDir,
		setups:     3,
		sweep:      workload.DefaultStorageSweep(),
		recordSize: 4 << 10,
		pool:       200 * seconds,
		preload:    2000,
		sample:     64,
		absentIDs:  1 << 13,
	}
}

// figure is one per-operation-kind number of the report.
type figure struct {
	name  string
	value float64
	unit  string
	note  string // sample counts
}

// result is what one workload run produced.
type result struct {
	workload  string
	env       string // injected delay, engine and durability
	attempted int
	failed    int
	failures  []string
	setup     []time.Duration
	ops       int           // operations completed in the timed phase
	elapsed   time.Duration // length of the timed phase
	opLat     latencies     // one latency per operation
	payload   int64         // payload bytes moved in the timed phase
	figures   []figure
	layers    map[string]float64
	tr        *tracer
	// overheadMs compares traced and untraced operations of the traced
	// run: mean latency of the traced ones minus the untraced ones.
	overheadMs, untracedMs float64
	notes                  []string
}

// fail records one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one check as attempted and records it as failed when err
// is non-nil.
func (r *result) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

var runners = map[string]func(params) (*result, error){
	"roundtrip": runRoundtrip,
	"ingest":    runIngest,
	"read_mix":  runReadMix,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "roundtrip, ingest or read_mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics and the breakdown instead of end-to-end metrics")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "work"), "directory for data directories and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := runners[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload roundtrip|ingest|read_mix, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	p := defaultParams(*seed, *seconds, *trace == 1, *workDir)
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := runner(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", *name, err)
		return 1
	}
	return report(stdout, stderr, res, p)
}

// endToEndValues maps every BENCHMARK.json end-to-end metric to its value.
func endToEndValues(r *result) map[string]float64 {
	return map[string]float64{
		"setup_s":          medianSeconds(r.setup),
		"ops_per_s":        ratio(float64(r.ops), r.elapsed.Seconds()),
		"payload_mb_per_s": ratio(float64(r.payload)/1e6, r.elapsed.Seconds()),
		"p50_ms":           r.opLat.pct(50),
		"p95_ms":           r.opLat.pct(95),
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the human-readable report, then the machine line, then
// the JSON result as the last line. It returns the exit code: non-zero
// when any check failed.
func report(stdout, stderr io.Writer, r *result, p params) int {
	w := stdout
	fmt.Fprintf(w, "workload %s: %s\n", r.workload, opOf(r.workload))
	for _, f := range r.figures {
		fmt.Fprintf(w, "  %-24s %14.4f %-6s %s\n", f.name, f.value, f.unit, f.note)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "perfbench %s: FAILED %s\n", r.workload, f)
	}
	line := resultLine{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricOut)}
	if p.traced {
		names := make([]string, 0, len(r.layers))
		for _, m := range perLayer {
			line.Metrics[m.Name] = metricOut{r.layers[m.Name], m.Unit}
			names = append(names, m.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			mv := moveOf(n)
			fmt.Fprintf(w, "  layer %-36s %14.4f %-5s moves: %s | leaves: %s\n", n, r.layers[n], unitOf(n), mv.Moves, mv.Stays)
		}
		rows, total, ops := r.tr.breakdown()
		printBreakdown(w, r.workload, rows, total, ops)
		fmt.Fprintf(w, "tracing overhead %s: %+.4f ms per operation (%+.2f%% of the untraced %.4f ms)\n",
			r.workload, r.overheadMs, 100*ratio(r.overheadMs, r.untracedMs), r.untracedMs)
		path := filepath.Join(p.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, p.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(w, "spans written to %s\n", path)
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = metricOut{endToEndValues(r)[m.Name], m.Unit}
		}
	}
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, r.env)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func opOf(name string) string {
	for _, w := range workloads {
		if w.Name == name {
			return w.Op
		}
	}
	return ""
}

func moveOf(name string) move {
	for _, mv := range moves {
		if mv.Metric == name {
			return mv
		}
	}
	return move{}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// commonFigures are the report lines every workload prints.
func commonFigures(r *result) []figure {
	e := endToEndValues(r)
	return []figure{
		{"setup_s", e["setup_s"], "s", fmt.Sprintf("median of %d set-ups", len(r.setup))},
		{"failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", fmt.Sprintf("%d of %d attempted", r.failed, r.attempted)},
		{"ops_per_s", e["ops_per_s"], "1/s", fmt.Sprintf("%d operations in %.3f s", r.ops, r.elapsed.Seconds())},
		{"payload_mb_per_s", e["payload_mb_per_s"], "MB/s", ""},
		{"p50_ms", e["p50_ms"], "ms", fmt.Sprintf("n=%d", len(r.opLat))},
		{"p95_ms", e["p95_ms"], "ms", fmt.Sprintf("n=%d, %d beyond", len(r.opLat), r.opLat.beyond(95))},
	}
}

// pctFigure reports one percentile of a latency sample with its counts.
func pctFigure(name string, l latencies, q float64) figure {
	note := fmt.Sprintf("n=%d", len(l))
	if q > 50 {
		note += fmt.Sprintf(", %d beyond", l.beyond(q))
	}
	return figure{name, l.pct(q), "ms", note}
}

// envLine describes the deployment for the machine line.
func envLine(delay string, durable bool) string {
	engine, err := storage.DefaultEngine()
	if err != nil {
		engine = storage.Engine("invalid: " + err.Error())
	}
	dur := "none (in-memory)"
	if durable {
		engine, dur = storage.EnginePersist, string(storage.DurabilityAlways)
	}
	return strings.Join([]string{"delay=" + delay, "engine=" + string(engine), "durability=" + dur,
		"peers=4 channels=1 ipfs_nodes=2 transport=inproc"}, " ")
}
