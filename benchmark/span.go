package main

import (
	"encoding/json"
	"sort"
	"time"
)

// The traced pass measures layers from outside: the harness wraps its own
// calls into each layer's exported functions in spans. A span records a
// name, start, end, the span that caused it and the operation it belongs
// to. Spans stay in memory and are written out once, at exit.

type spanID int32

const noSpan spanID = -1

type span struct {
	Name       string
	Op         int // operation id: every span of one operation shares it
	Parent     spanID
	Start, End time.Duration // offsets from the recorder's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects the spans of one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(op int, name string, parent spanID) spanID {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(r.epoch), End: -1})
	return spanID(len(r.spans) - 1)
}

// end closes a span and returns its duration.
func (r *recorder) end(id spanID) time.Duration {
	s := &r.spans[id]
	s.End = time.Since(r.epoch)
	return s.dur()
}

// absorb appends another recorder's spans (recorded against the same
// epoch), rebasing their parent links.
func (r *recorder) absorb(o *recorder) {
	base := spanID(len(r.spans))
	for _, s := range o.spans {
		if s.Parent != noSpan {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover. Children may overlap one another (parallel
// fragments) or stick out of the parent (a clock read taken late): covered
// time is the union of the children's intervals clipped to the parent, so
// no instant is subtracted twice and self time is never negative.
func (r *recorder) selfTimes() []time.Duration {
	children := make([][]spanID, len(r.spans))
	for i, s := range r.spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], spanID(i))
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, p := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, edge := time.Duration(0), p.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k].Start, edge), min(r.spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// traceEvent is one Chrome trace-event ("X" = complete event). Perfetto and
// chrome://tracing load a JSON array of these; one track (tid) per
// operation keeps each operation's spans nested under its root.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (r *recorder) chromeTrace() ([]byte, error) {
	self := r.selfTimes()
	events := make([]traceEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < 0 {
			continue // never closed: the operation failed midway
		}
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: s.Op,
			Args: map[string]any{"span": i, "parent": int(s.Parent), "op": s.Op, "self_us": us(self[i])},
		})
	}
	return json.Marshal(events)
}
