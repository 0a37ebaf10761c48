package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans stay in memory
// and are written out when the run ends.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, which is how the
// untraced passes share code with the traced ones.
type tracer struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// start opens a span under parent (0 = root) and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTime sums, over every span called name, its duration minus the
// part of its interval that its child spans cover.
func (t *tracer) selfTime(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var total int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		total += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return time.Duration(total)
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// traceAll is the traced run: one traced pass of every pipeline, so a
// single run reports every per-layer metric. Spans are written next to
// the work directory when the run ends.
func traceAll(b *bench) error {
	tr := newTracer(fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	b.tracers = append(b.tracers, tr)
	for _, step := range []func(*bench, *tracer) error{tracePaper, traceFleet, traceServe} {
		if err := step(b, tr); err != nil {
			return err
		}
	}
	for _, t := range b.tracers {
		path := filepath.Join(filepath.Dir(b.work), "spans-"+t.run+".jsonl")
		if err := t.write(path); err != nil {
			return err
		}
		b.info["spans_"+t.run] = path
	}
	return nil
}
