package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span
// that caused it (0 for a root). Alloc is the heap bytes the process
// allocated between start and end, when the span asked for it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer was made
	End    float64 `json:"end_ms"`
	Alloc  float64 `json:"alloc_mb,omitempty"`
	heap0  uint64
	allocs bool
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil *tracer is the untraced mode: every method is a no-op, so the
// same workload code runs with and without tracing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	return t.open(name, parent, false)
}

// beginAlloc opens a span that also records allocation volume.
func (t *tracer) beginAlloc(name string, parent int) int {
	return t.open(name, parent, true)
}

func (t *tracer) open(name string, parent int, allocs bool) int {
	if t == nil {
		return 0
	}
	s := span{Name: name, Parent: parent, allocs: allocs}
	if allocs {
		s.heap0 = heapAllocs()
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start = durMS(now.Sub(t.epoch))
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = durMS(now.Sub(t.epoch))
	if s.allocs {
		s.Alloc = float64(heapAllocs()-s.heap0) / 1e6
	}
}

// selfMS maps each span id to its self time: its duration minus the
// part of its interval covered by its children.
func (t *tracer) selfMS() map[int]float64 {
	kids := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[int]float64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerStats summarizes the spans of each name: the summed self time,
// the self time of each span, and the summed allocation.
type layerStats struct {
	SelfMS  float64
	Each    []float64
	AllocMB float64
}

// layers maps a span name to its summary.
type layers map[string]*layerStats

func (l layers) self(name string) float64 {
	if s := l[name]; s != nil {
		return s.SelfMS
	}
	return 0
}

func (l layers) alloc(name string) float64 {
	if s := l[name]; s != nil {
		return s.AllocMB
	}
	return 0
}

// p50 is the median self time of the spans named name.
func (l layers) p50(name string) float64 {
	if s := l[name]; s != nil {
		return median(s.Each)
	}
	return 0
}

func (t *tracer) byName() layers {
	self := t.selfMS()
	out := make(layers)
	for _, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.SelfMS += self[s.ID]
		ls.Each = append(ls.Each, self[s.ID])
		ls.AllocMB += s.Alloc
	}
	return out
}

// write stores the spans and the derived layer metrics as JSON.
func (t *tracer) write(path string, extra map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"spans": t.spans}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
