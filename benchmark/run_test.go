package main

import (
	"math"
	"testing"
	"time"

	"proteus"
)

// fill adds rounds of two operations, one a hundred times the other, to a
// phase; slow(round, op) scales single samples.
func fill(ph *phase, rounds int, slow func(round int, o *op) float64) {
	ops := []op{{Label: "fast", Pool: "fast"}, {Label: "slow", Pool: "slow"}}
	base := []time.Duration{time.Millisecond, 100 * time.Millisecond}
	for r := 0; r < rounds; r++ {
		for i := range ops {
			lat := time.Duration(float64(base[i]) * slow(r, &ops[i]))
			ph.add(&ops[i], lat)
		}
	}
}

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }

// The typical latency of a mix is the geometric mean of the operations'
// medians, not the pooled median (which would be 1 or 100 ms here).
func TestTypicalIsGeometricMeanOfMedians(t *testing.T) {
	ph := newPhase()
	fill(ph, 100, func(int, *op) float64 { return 1 })
	if got := ph.typical(); !near(got, 10) {
		t.Errorf("typical = %v ms, want 10", got)
	}
	if tm := ph.templates(); !near(tm["fast"], 1) || !near(tm["slow"], 100) {
		t.Errorf("template medians = %v", tm)
	}
}

// The 95th percentile is the pooled one: a stall that hits every eighth
// round of the slow operation — a sixteenth of all operations — reaches it,
// and one that hits every fortieth round does not.
func TestP95IsPooled(t *testing.T) {
	for _, c := range []struct {
		every int
		want  float64
	}{{8, 150}, {40, 100}} {
		ph := newPhase()
		fill(ph, 200, func(r int, o *op) float64 {
			if o.Label == "slow" && r%c.every == 0 {
				return 1.5
			}
			return 1
		})
		if got := ph.p95(); !near(got, c.want) {
			t.Errorf("p95 with every %dth slow round stalled = %v ms, want %v", c.every, got, c.want)
		}
		if got := ph.typical(); !near(got, 10) {
			t.Errorf("typical with every %dth slow round stalled = %v ms, want 10", c.every, got)
		}
	}
}

// Two clients' phases merge into one distribution per operation.
func TestPhaseMerge(t *testing.T) {
	a, b := newPhase(), newPhase()
	fill(a, 10, func(int, *op) float64 { return 1 })
	fill(b, 10, func(int, *op) float64 { return 3 })
	a.busyS, b.busyS = 1, 3
	a.merge(b)
	if a.ops != 40 || len(a.byOp["fast"].ms) != 20 || a.busyS != 3 {
		t.Errorf("merged phase has %d operations, %d fast samples, lasted %v s", a.ops, len(a.byOp["fast"].ms), a.busyS)
	}
	if got := a.templates()["fast"]; !near(got, 2) {
		t.Errorf("median of merged fast samples = %v ms, want 2", got)
	}
}

// On cluster3 an operation the coordinator answers by itself fails, in the
// untraced phase too: a coordinator without workers stands in for one that
// fell back to local execution.
func TestLocalFallbackFailsOnCluster(t *testing.T) {
	tp, err := genTPCH(newRng(1), scale{Lineitem: 400, Orders: 100, Clerks: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := newSystem(proteus.Config{})
	if err := s.register(s.db, tp.Lineitem, "bin"); err != nil {
		t.Fatal(err)
	}
	o := mk("count", "SELECT COUNT(*) FROM lineitem_bin")
	if _, got, err := s.run(&o); err != nil || got.Rows != 1 {
		t.Fatalf("stand-alone system: %v, %v", got, err)
	}
	s.local = s // what marks a system as a cluster's coordinator
	if _, _, err := s.run(&o); err == nil {
		t.Error("a locally answered operation passed on a cluster system")
	}
}
