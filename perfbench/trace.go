package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span buffer; spans past it are counted
// as dropped, so a faster program cannot grow the traced run's memory
// without bound.
const maxSpans = 1 << 20

// span is one timed call the benchmark made into a layer.
type span struct {
	cat, name  string
	start, end time.Time
	id, parent uint64
}

// tracer keeps spans in memory and writes them as a Chrome trace-event
// file at the end of the run. A nil *tracer records nothing, so the
// untraced run pays one nil test per call site.
type tracer struct {
	t0      time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span records a span from start to now under parent (0 for none) and
// returns its id.
func (t *tracer) span(cat, name string, start time.Time, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	id := t.reserve()
	t.spanAs(id, cat, name, start, parent)
	return id
}

// reserve returns an id for a span that is recorded later with
// spanAs, so children can name it as their parent while it is open.
func (t *tracer) reserve() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// spanAs records a span under a reserved id.
func (t *tracer) spanAs(id uint64, cat, name string, start time.Time, parent uint64) {
	if t == nil {
		return
	}
	s := span{cat: cat, name: name, start: start, end: time.Now(), id: id, parent: parent}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// traceEvent is one Chrome trace-event ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the run began
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write emits the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Each category gets its own track; args carry the span id
// and its parent's.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.spans
	dropped := t.dropped
	t.mu.Unlock()
	tids := map[string]int{}
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.cat]
		if !ok {
			tid = len(tids) + 1
			tids[s.cat] = tid
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": dropped},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
