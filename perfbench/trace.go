package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// share Req; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced passes run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations, in seconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfSeconds sums each layer's self time: a span's duration minus the
// part of it that its child spans cover. The layer is the span name up to
// the first dot.
func (t *tracer) selfSeconds() map[string]float64 {
	ss := t.snapshot()
	children := make([][]int, len(ss))
	for i, s := range ss {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]float64{}
	for i, s := range ss {
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(s.End-s.Start-covered(ss, children[i])) / 1e9
	}
	return self
}

// covered returns the length of the union of the given spans' intervals.
func covered(ss []span, idx []int) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{ss[i].Start, ss[i].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, v := range iv[1:] {
		if v[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = v
		} else if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	return total + cur[1] - cur[0]
}

// addSelfTimes reports the per-layer self times.
func addSelfTimes(m map[string]float64, t *tracer) {
	for layer, s := range t.selfSeconds() {
		m["self."+layer+"_s"] = s
	}
}
