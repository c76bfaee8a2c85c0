package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the traced run. Spans nest strictly: a
// child starts after and ends before its parent, on the same track.
type span struct {
	Name   string
	Cell   int // index of the cell the span belongs to
	Track  int // 1: the cell itself, 2: shadow calls made outside it
	Parent int // index of the enclosing span, -1 for none
	Start  time.Duration
	Dur    time.Duration
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string, cell, track int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Cell: cell, Track: track, Parent: parent, Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].Dur = time.Since(t.t0) - t.spans[id].Start
	return t.spans[id].Dur
}

// time runs fn inside a span and returns the span's duration in ns.
func (t *tracer) time(name string, cell, track int, fn func()) float64 {
	t.begin(name, cell, track)
	fn()
	return float64(t.end())
}

// spanStats aggregates every span of one name. Self time is a span's
// duration minus the time its child spans cover.
type spanStats struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Ms   float64 `json:"p50_ms"`
}

func (t *tracer) stats() map[string]spanStats {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := map[string]spanStats{}
	durs := map[string][]float64{}
	for i, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotalMs += ms(s.Dur)
		st.SelfMs += ms(s.Dur - child[i])
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], ms(s.Dur))
	}
	for name, st := range out {
		st.P50Ms = median(durs[name])
		out[name] = st
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Args: map[string]int{"cell": s.Cell, "id": i, "parent": s.Parent},
		}
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// writeJSON writes v as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
