package main

import "testing"

// Same seed ⇒ the same bytes and the same operation list; another seed ⇒
// different ones. The engine sees nothing the seed does not determine.
func TestInputsAreSeedDetermined(t *testing.T) {
	sc := fullScale.times(1.0 / 50)
	for i := range workloads {
		w := &workloads[i]
		hashes := func(seed uint64) (string, string) {
			d, err := w.generate(newRng(seed), sc, 2)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			return hashTables(d.tables()...), hashOps(d.allRounds()...)
		}
		in1, ops1 := hashes(7)
		in2, ops2 := hashes(7)
		in3, ops3 := hashes(8)
		if in1 != in2 || ops1 != ops2 {
			t.Errorf("%s: seed 7 generated different inputs or operations twice", w.Name)
		}
		if in1 == in3 {
			t.Errorf("%s: seeds 7 and 8 generated the same datasets", w.Name)
		}
		// raw_scan's operations are the paper's fixed templates; only its
		// data varies with the seed.
		if ops1 == ops3 && w.Name != "raw_scan" {
			t.Errorf("%s: seeds 7 and 8 generated the same operation list", w.Name)
		}
	}
}

// Row counts are exact, so rows_per_s and live_heap_mb mean the same thing at
// every seed.
func TestRowCountsAreExact(t *testing.T) {
	sc := scale{Lineitem: 1234, Orders: 300, Clerks: 20, SpamJSON: 210, SpamCSV: 400, SpamBin: 600}
	for seed := uint64(1); seed < 4; seed++ {
		tp, err := genTPCH(newRng(seed), sc)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Lineitem.Rows != sc.Lineitem || tp.Orders.Rows != sc.Orders || tp.Clerk.Rows != sc.Clerks {
			t.Errorf("seed %d: got %d/%d/%d rows", seed, tp.Lineitem.Rows, tp.Orders.Rows, tp.Clerk.Rows)
		}
		if n := len(tp.Lineitem.boxed()); n != sc.Lineitem {
			t.Errorf("seed %d: %d reference rows", seed, n)
		}
	}
}

// Sums of generated floats must not depend on the order of addition:
// digests compare a parallel SUM with a serial one bit for bit.
func TestFloatSumsAreExact(t *testing.T) {
	tp, err := genTPCH(newRng(5), scale{Lineitem: 5000, Orders: 1000, Clerks: 20})
	if err != nil {
		t.Fatal(err)
	}
	price := tp.Lineitem.Cols[5].Floats
	var fwd, rev float64
	for i := range price {
		fwd += price[i]
		rev += price[len(price)-1-i]
	}
	if fwd != rev {
		t.Errorf("forward sum %v, reverse sum %v", fwd, rev)
	}
}
