package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around its calls into the system; the spans of one request (one
// epoch, one query) share Req. Times are nanoseconds since the tracer
// started. Units and CPU are set on stage-replay spans only.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Units  int    `json:"units,omitempty"`
	CPU    int64  `json:"cpu_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how end-to-end runs keep tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// stage closes a replay span with what the stage processed and cost.
func (t *tracer) stage(id, units int, cpu time.Duration) {
	if t == nil || id == 0 {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.spans[id-1].Units = units
	t.spans[id-1].CPU = int64(cpu)
	t.mu.Unlock()
}

// selfTimes returns each span name's summed self time: a span's duration
// minus the part of it its child spans cover (children may overlap: two
// connections write one epoch at once).
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, until := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, until), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
