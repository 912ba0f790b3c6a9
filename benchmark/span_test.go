package main

import (
	"encoding/json"
	"testing"
	"time"
)

// at builds a recorder from explicit intervals (in µs).
func at(spans ...span) *recorder {
	r := &recorder{}
	for _, s := range spans {
		s.Start *= time.Microsecond
		s.End *= time.Microsecond
		r.spans = append(r.spans, s)
	}
	return r
}

func TestSelfTime(t *testing.T) {
	r := at(
		span{Name: "op", Op: 1, Parent: noSpan, Start: 0, End: 100},
		span{Name: "a", Op: 1, Parent: 0, Start: 10, End: 40}, // nested
		span{Name: "a1", Op: 1, Parent: 1, Start: 15, End: 25},
		span{Name: "b", Op: 1, Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		span{Name: "c", Op: 1, Parent: 0, Start: 90, End: 120}, // sticks out of the parent by 20
		span{Name: "d", Op: 1, Parent: 0, Start: 35, End: 38},  // wholly inside a∩b
	)
	want := []time.Duration{40, 20, 10, 30, 30, 3} // µs; op: 100 − |[10,60) ∪ [90,100)| = 40
	got := r.selfTimes()
	for i := range want {
		if got[i] != want[i]*time.Microsecond {
			t.Errorf("self time of %s = %v, want %vµs", r.spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderLinksAndTrace(t *testing.T) {
	r := newRecorder()
	for op := 0; op < 3; op++ {
		root := r.begin(op, "op", noSpan)
		child := r.begin(op, "engine.query", root)
		grand := r.begin(op, "exec.run", child)
		r.end(grand)
		r.end(child)
		r.end(root)
	}
	open := r.begin(3, "never closed", noSpan)
	_ = open

	other := &recorder{epoch: r.epoch}
	root := other.begin(4, "op", noSpan)
	other.end(other.begin(4, "server.request", root))
	other.end(root)
	r.absorb(other)
	if last := r.spans[len(r.spans)-1]; r.spans[last.Parent].Op != 4 || r.spans[last.Parent].Name != "op" {
		t.Errorf("absorbed span's parent is %+v", r.spans[last.Parent])
	}

	data, err := r.chromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	roots := map[int]int{}
	for _, e := range events {
		if e.Ph != "X" || e.Dur < 0 {
			t.Errorf("bad event %+v", e)
		}
		if e.Args["parent"].(float64) == float64(noSpan) {
			roots[e.Tid]++
		} else if p := r.spans[int(e.Args["parent"].(float64))]; p.Op != e.Tid {
			t.Errorf("span %q of operation %d hangs under operation %d", e.Name, e.Tid, p.Op)
		}
	}
	if len(roots) != 4 { // operations 0,1,2 and 4; the unclosed one is dropped
		t.Errorf("roots per operation: %v", roots)
	}
	for op, n := range roots {
		if n != 1 {
			t.Errorf("operation %d has %d roots", op, n)
		}
	}
}
