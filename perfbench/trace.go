package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval of a traced operation. Spans of one operation share
// Op; Parent 0 marks the operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts a new operation and returns its ID.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records [start, end] under parent and returns the span's ID.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// interval returns the start and end of span id.
func (t *tracer) interval(id int) (time.Time, time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return t.t0.Add(time.Duration(s.Start)), t.t0.Add(time.Duration(s.End))
}

// part is a child interval known only by its duration.
type part struct {
	name string
	d    time.Duration
}

// fromEnd lays parts back to back inside span parent so the last one ends
// where parent ends, clipped at parent's start. The program reports only
// how long each stage took; these stages are the last steps of the call.
func (t *tracer) fromEnd(op, parent int, parts ...part) []int {
	lo, end := t.interval(parent)
	ids := make([]int, len(parts))
	for i := len(parts) - 1; i >= 0; i-- {
		start := end.Add(-parts[i].d)
		if start.Before(lo) {
			start = lo
		}
		ids[i] = t.add(op, parent, parts[i].name, start, end)
		end = start
	}
	return ids
}

// fromStart lays parts back to back from the start of span parent,
// clipped at parent's end.
func (t *tracer) fromStart(op, parent int, parts ...part) []int {
	start, hi := t.interval(parent)
	ids := make([]int, len(parts))
	for i, p := range parts {
		end := start.Add(p.d)
		if end.After(hi) {
			end = hi
		}
		ids[i] = t.add(op, parent, p.name, start, end)
		start = end
	}
	return ids
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// row is one line of a breakdown: a span name and its self time.
type row struct {
	name string
	self time.Duration
}

// breakdown splits the traced operations' total time into the self time
// of each span name: a span's duration minus the time its direct
// children cover. A root's self time is the part of the operation no
// layer accounts for and forms the final `unattributed` row, so the rows
// sum to the operations' total time.
func (t *tracer) breakdown() (rows []row, total time.Duration, ops int) {
	covered := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	var order []string
	var unattributed time.Duration
	opSeen := make(map[int]bool)
	for _, s := range t.spans {
		d := s.dur() - covered[s.ID]
		if s.Parent == 0 {
			total += s.dur()
			unattributed += d
			opSeen[s.Op] = true
			continue
		}
		if _, ok := self[s.Name]; !ok {
			order = append(order, s.Name)
		}
		self[s.Name] += d
	}
	sort.SliceStable(order, func(i, j int) bool { return self[order[i]] > self[order[j]] })
	for _, n := range order {
		rows = append(rows, row{n, self[n]})
	}
	rows = append(rows, row{"unattributed", unattributed})
	return rows, total, len(opSeen)
}

// printBreakdown writes the breakdown as milliseconds per operation and
// share of the total.
func printBreakdown(w io.Writer, workload string, rows []row, total time.Duration, ops int) {
	fmt.Fprintf(w, "breakdown %s: %d traced operations, %.4f ms per operation\n", workload, ops, ratio(ms(total), float64(ops)))
	var sum time.Duration
	for _, r := range rows {
		sum += r.self
		fmt.Fprintf(w, "  %-28s %10.4f ms %6.2f%%\n", r.name, ratio(ms(r.self), float64(ops)), 100*ratio(float64(r.self), float64(total)))
	}
	fmt.Fprintf(w, "  %-28s %10.4f ms (rows sum to the total)\n", "sum", ratio(ms(sum), float64(ops)))
}
