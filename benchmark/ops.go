package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// opKind tells the svc client how to send an operation.
type opKind int

const (
	kindQuery    opKind = iota // in-process, or ad-hoc text over HTTP
	kindPrepared               // executed through a /v1/prepare handle
	kindStream                 // large projection streamed as NDJSON
)

// op is one operation of a workload: a query text plus what the harness
// needs to account for it (input rows) and to check it (reference digest).
type op struct {
	Label string // template name, for traces and error messages
	Text  string
	// Pool names the latency distribution the operation's samples join: its
	// text, so that every variant of a template has its own median — except
	// texts that are sent too rarely to have one, which share their template's.
	Pool    string
	Kind    opKind
	Ordered bool  // result order is part of the answer (ORDER BY)
	Rows    int64 // Σ cardinality of the datasets named in FROM
	ref     digest
}

// logical maps a query to the text the reference interpreter runs: the same
// query over the binary copies. The three formats hold the same rows, so
// one reference serves every format a template is instantiated on.
func (o *op) logical() string {
	return strings.NewReplacer("_csv", "_bin", "_json", "_bin").Replace(o.Text)
}

func mk(label string, format string, args ...any) op {
	text := fmt.Sprintf(format, args...)
	return op{Label: label, Text: text, Pool: text, Ordered: strings.Contains(format, "ORDER BY")}
}

// pct returns p percent of a key domain, the literal that gives a range
// predicate `key < literal` selectivity p.
func pct(domain int, p int) int64 { return int64(domain)*int64(p)/100 + 1 }

// rawScanOps: the paper's Fig. 5–8/11–12 templates over each raw format.
func rawScanOps(t *tpch) []op {
	var ops []op
	for _, f := range []string{"csv", "json", "bin"} {
		x := "lineitem_" + f
		for _, sel := range []int{10, 50, 100} {
			ops = append(ops, mk(fmt.Sprintf("count%d/%s", sel, f),
				"SELECT COUNT(*) FROM %s WHERE l_orderkey < %d", x, pct(t.Orders.Rows, sel)))
		}
		ops = append(ops,
			mk("agg4/"+f, "SELECT MAX(l_quantity), SUM(l_extendedprice), MIN(l_discount), COUNT(*) FROM %s WHERE l_orderkey < %d",
				x, pct(t.Orders.Rows, 50)),
			mk("groupby/"+f, "SELECT l_linenumber, COUNT(*), SUM(l_quantity) FROM %s WHERE l_orderkey < %d GROUP BY l_linenumber",
				x, pct(t.Orders.Rows, 50)))
	}
	return ops
}

// Seeded literals move a predicate's window, never widen it: a seed decides
// which rows qualify, not how many, so every seed is the same amount of work.

// warmCacheOps: selective predicates the cache's zone maps and bitmap
// indexes can answer, with seeded literals, over the two verbose formats.
func warmCacheOps(r *rng) []op {
	const variants = 4
	// One prefix per ship mode, so every LIKE matches a seventh of the rows.
	prefixes := []string{"AI", "FO", "MA", "RA", "RE", "SH", "TR"}
	var ops []op
	for v := 0; v < variants; v++ {
		supp := r.intn(maxSuppKey) + 1
		date := r.intn(maxShipDate - 25)
		mode := pick(r, shipModes)
		prefix := pick(r, prefixes)
		// Both bounds of the price window fall in the middle of the value
		// range, where each conjunct passes 40–60 % of its input: the filter
		// costs least where a bound passes nearly everything, and a window
		// drawn from the whole range made seeds differ by 25 %.
		price := 4600 + r.intn(1800)
		for _, f := range []string{"json", "csv"} {
			x := "lineitem_" + f
			ops = append(ops,
				mk("sparse_eq/"+f, "SELECT COUNT(*), SUM(l_quantity) FROM %s WHERE l_suppkey = %d", x, supp),
				mk("zone_range/"+f, "SELECT COUNT(*), MAX(l_extendedprice) FROM %s WHERE l_shipdate >= %d AND l_shipdate < %d", x, date, date+25),
				mk("str_eq/"+f, "SELECT COUNT(*) FROM %s WHERE l_shipmode = '%s'", x, mode),
				mk("like_prefix/"+f, "SELECT COUNT(*) FROM %s WHERE l_shipmode LIKE '%s%%'", x, prefix),
				// A fifth of the price range; float columns take no bitmap
				// index, so this one is always a scan of cached columns.
				mk("agg3/"+f, "SELECT SUM(l_extendedprice), MIN(l_discount), MAX(l_tax) FROM %s WHERE l_extendedprice >= %d.0 AND l_extendedprice < %d.0", x, price, price+1800))
		}
	}
	return ops
}

// joinSortOps: the blocking operators — hash build/probe, big aggregation
// tables, sort — over warm inputs so that scans are the cheap part.
func joinSortOps(t *tpch, r *rng) []op {
	half := int64(t.Orders.Rows / 2)
	key := r.intn(half) + 1 // window of half the order keys
	prio := r.intn(4)       // two of five priorities
	q25 := r.intn(maxQuantity/2) + 1
	q40 := r.intn(10) + 1
	return []op{
		mk("join_bin", "SELECT COUNT(*), SUM(l.l_quantity) FROM orders_bin o JOIN lineitem_bin l ON o.o_orderkey = l.l_orderkey WHERE o.o_orderkey >= %d AND o.o_orderkey < %d", key, key+half),
		mk("join_json_csv", "SELECT COUNT(*), MAX(l.l_extendedprice) FROM orders_json o JOIN lineitem_csv l ON o.o_orderkey = l.l_orderkey WHERE o.o_shippriority >= %d AND o.o_shippriority < %d", prio, prio+2),
		mk("join3_dim", "SELECT c.c_dept, COUNT(*) FROM lineitem_bin l JOIN orders_bin o ON l.l_orderkey = o.o_orderkey JOIN clerk_bin c ON o.o_clerkkey = c.c_clerkkey WHERE l.l_quantity >= %d AND l.l_quantity < %d GROUP BY c.c_dept", q25, q25+25),
		mk("group_orderkey", "SELECT l_orderkey, COUNT(*), SUM(l_quantity) FROM lineitem_bin GROUP BY l_orderkey"),
		mk("order_limit", "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem_bin WHERE l_quantity >= %d AND l_quantity < %d ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 100", q40, q40+40),
		mk("join_strkey", "SELECT COUNT(*), MAX(c.c_dept) FROM orders_bin o JOIN clerk_bin c ON o.o_clerk = c.c_name WHERE o.o_shippriority >= %d AND o.o_shippriority < %d", prio, prio+2),
	}
}

// spamOps: the paper's Fig. 14 fifty-query workload — binary, then CSV,
// then JSON, then pairwise and three-way joins. Selectivities are the
// paper's and fixed; the seed picks the data and the string literals.
// The order is part of the workload: each phase's first query is the cold
// touch of its format, and caches fill as the list proceeds.
func spamOps(s *spam, r *rng) []op {
	p := func(percent int) int64 { return pct(int(s.MaxMid), percent) }
	var ops []op
	add := func(format string, args ...any) {
		o := mk("", format, args...)
		// A text that occurs twice in the list is two operations: the cache
		// state it finds is part of what it costs.
		o.Label = fmt.Sprintf("Q%02d", len(ops)+1)
		o.Pool = o.Label
		ops = append(ops, o)
	}
	// Q1–Q8: binary history table.
	add("SELECT COUNT(*) FROM hist_bin WHERE mid < %d", p(5))
	add("SELECT MAX(volume), AVG(hits) FROM hist_bin WHERE day < 90")
	add("SELECT day, COUNT(*) FROM hist_bin WHERE mid < %d GROUP BY day", p(25))
	add("SELECT SUM(hits) FROM hist_bin WHERE volume < 250000.0")
	add("SELECT MAX(feature), MIN(feature) FROM hist_bin WHERE mid < %d AND day < 180", p(20))
	add("SELECT day, SUM(volume), COUNT(*) FROM hist_bin WHERE hits < 100 GROUP BY day")
	add("SELECT AVG(volume) FROM hist_bin WHERE mid < %d AND hits < 500", p(10))
	add("SELECT COUNT(*) FROM hist_bin WHERE mid < %d", p(1))
	// Q9–Q15: CSV classifier output (Q9 is its cold first touch).
	add("SELECT COUNT(*) FROM class_csv WHERE score < 0.2")
	add("SELECT class_id, COUNT(*) FROM class_csv WHERE confidence < 0.25 GROUP BY class_id")
	add("SELECT MAX(score) FROM class_csv WHERE mid < %d", p(10))
	add("SELECT COUNT(*) FROM class_csv WHERE label LIKE '%%phish%%' AND score < 0.5")
	add("SELECT label, COUNT(*), AVG(confidence) FROM class_csv WHERE cluster < 1250 GROUP BY label")
	add("SELECT SUM(score), MAX(confidence) FROM class_csv WHERE class_id < 2")
	add("SELECT cluster, COUNT(*) FROM class_csv WHERE mid < %d GROUP BY cluster", p(2))
	// Q16–Q25: JSON feed (Q16 is its cold first touch).
	add("SELECT COUNT(*) FROM feed_json WHERE score < 0.2")
	add("SELECT MAX(body_len) FROM feed_json WHERE mid < %d", p(25))
	add("SELECT COUNT(*) FROM feed_json WHERE lang = '%s' AND score < 0.5", pick(r, spamLangs))
	add("SELECT day, COUNT(*) FROM feed_json WHERE body_len < 1000 GROUP BY day")
	add("for { m <- feed_json, c <- m.classes, c.w > 50 } yield count")
	add("SELECT COUNT(*) FROM feed_json WHERE country = '%s' AND body_len < 2000", pick(r, spamLands))
	add("SELECT AVG(score) FROM feed_json WHERE mid < %d AND day < 180", p(20))
	add("for { m <- feed_json, c <- m.classes, m.score < 0.1 } yield count")
	add("SELECT day, MAX(score), COUNT(*) FROM feed_json WHERE body_len < 500 GROUP BY day")
	add("SELECT SUM(body_len) FROM feed_json WHERE mid < %d", p(5))
	// Q26–Q30: BIN ⋈ CSV.
	add("SELECT COUNT(*) FROM hist_bin b JOIN class_csv c ON b.mid = c.mid WHERE b.mid < %d", p(2))
	add("SELECT MAX(c.score) FROM hist_bin b JOIN class_csv c ON b.mid = c.mid WHERE b.day < 30 AND b.mid < %d", p(10))
	add("SELECT COUNT(*) FROM hist_bin b JOIN class_csv c ON b.mid = c.mid WHERE c.label LIKE '%%pharma%%' AND b.mid < %d", p(5))
	add("SELECT AVG(b.volume) FROM hist_bin b JOIN class_csv c ON b.mid = c.mid WHERE b.mid < %d AND c.label LIKE '%%casino%%'", p(1))
	add("SELECT COUNT(*), MAX(b.hits) FROM hist_bin b JOIN class_csv c ON b.mid = c.mid WHERE b.mid < %d AND c.score < 0.3", p(5))
	// Q31–Q35: BIN ⋈ JSON.
	add("SELECT COUNT(*) FROM hist_bin b JOIN feed_json m ON b.mid = m.mid WHERE b.mid < %d", p(5))
	add("SELECT MAX(m.score) FROM hist_bin b JOIN feed_json m ON b.mid = m.mid WHERE b.day < 90 AND b.mid < %d", p(10))
	add("SELECT AVG(m.body_len) FROM hist_bin b JOIN feed_json m ON b.mid = m.mid WHERE b.mid < %d", p(2))
	add("SELECT COUNT(*), MAX(b.volume) FROM hist_bin b JOIN feed_json m ON b.mid = m.mid WHERE m.score < 0.25 AND b.mid < %d", p(10))
	add("SELECT m.day, COUNT(*) FROM hist_bin b JOIN feed_json m ON b.mid = m.mid WHERE b.mid < %d GROUP BY m.day", p(5))
	// Q36–Q40: CSV ⋈ JSON.
	add("SELECT COUNT(*) FROM class_csv c JOIN feed_json m ON c.mid = m.mid WHERE c.mid < %d", p(2))
	add("SELECT MAX(c.score) FROM class_csv c JOIN feed_json m ON c.mid = m.mid WHERE m.body_len < 800 AND c.mid < %d", p(5))
	add("SELECT AVG(m.score) FROM class_csv c JOIN feed_json m ON c.mid = m.mid WHERE c.confidence < 0.2 AND c.mid < %d", p(5))
	add("SELECT COUNT(*) FROM class_csv c JOIN feed_json m ON c.mid = m.mid WHERE c.mid < %d AND m.day < 180", p(3))
	add("SELECT m.day, COUNT(*), MAX(c.score) FROM class_csv c JOIN feed_json m ON c.mid = m.mid WHERE c.mid < %d GROUP BY m.day", p(2))
	// Q41–Q50: three-way joins.
	const join3 = "FROM hist_bin b JOIN class_csv c ON b.mid = c.mid JOIN feed_json m ON b.mid = m.mid WHERE b.mid < %d"
	for i := 0; i < 10; i++ {
		sel := p(3)
		switch i % 3 {
		case 0:
			add("SELECT COUNT(*) "+join3, sel)
		case 1:
			add("SELECT MAX(m.score), COUNT(*) "+join3+" AND c.score < 0.5", sel)
		default:
			add("SELECT m.day, COUNT(*) "+join3+" GROUP BY m.day", sel)
		}
	}
	return ops
}

// adhocOps: n textually distinct queries over the 1 000-row trio, half SQL
// and half comprehensions, one to three datasets each. Execution takes
// microseconds, so the front end and per-query engine overhead are the
// latency; n exceeds the plan cache, so cycling through them never hits it.
func adhocOps(t *tpch, r *rng, n int) []op {
	formats := []string{"csv", "json", "bin"}
	seen := map[string]bool{}
	var ops []op
	for len(ops) < n {
		// Formats cycle rather than being drawn: a CSV scan costs several
		// binary ones, so a drawn mix would make seeds differ in work.
		k := len(ops) / 8
		f, g, h := formats[k%3], formats[k/3%3], formats[k/9%3]
		a := r.intn(int64(t.Orders.Rows)) + 2
		b := r.intn(maxSuppKey) + 2
		q := r.intn(maxQuantity) + 2
		d := r.intn(maxShipDate) + 2
		var o op
		switch len(ops) % 8 {
		case 0:
			o = mk("sql_scan", "SELECT COUNT(*), SUM(l_quantity) FROM lineitem_%s WHERE l_orderkey < %d AND l_suppkey < %d", f, a, b)
		case 1:
			o = mk("comp_scan", "for { l <- lineitem_%s, l.l_quantity < %d, l.l_suppkey < %d } yield count", f, q, b)
		case 2:
			o = mk("sql_join2", "SELECT COUNT(*) FROM orders_%s o JOIN lineitem_%s l ON o.o_orderkey = l.l_orderkey WHERE l.l_quantity < %d AND o.o_orderkey < %d", f, g, q, a)
		case 3:
			o = mk("comp_join2", "for { o <- orders_%s, l <- lineitem_%s, o.o_orderkey = l.l_orderkey, l.l_shipdate < %d, o.o_orderkey < %d } yield sum l.l_quantity", f, g, d, a)
		case 4:
			o = mk("sql_join3", "SELECT c.c_dept, COUNT(*) FROM lineitem_%s l JOIN orders_%s o ON l.l_orderkey = o.o_orderkey JOIN clerk_%s c ON o.o_clerkkey = c.c_clerkkey WHERE l.l_shipdate < %d AND l.l_suppkey < %d GROUP BY c.c_dept", f, g, h, d, b)
		case 5:
			o = mk("comp_join3", "for { l <- lineitem_%s, o <- orders_%s, c <- clerk_%s, l.l_orderkey = o.o_orderkey, o.o_clerkkey = c.c_clerkkey, c.c_dept < %d, l.l_suppkey < %d } yield max l.l_quantity", f, g, h, 1+r.intn(19), b)
		case 6:
			o = mk("sql_group", "SELECT l_linenumber, MAX(l_extendedprice) FROM lineitem_%s WHERE l_shipdate < %d AND l_suppkey < %d GROUP BY l_linenumber", f, d, b)
		default:
			o = mk("comp_bag", "for { l <- lineitem_%s, l.l_shipdate < %d, l.l_quantity < %d } yield bag (l.l_orderkey, l.l_linenumber)", f, d/10+2, q)
		}
		if !seen[o.Text] {
			seen[o.Text] = true
			ops = append(ops, o)
		}
	}
	return ops
}

// svcSmall is the small aggregate both the ad-hoc and the prepared half of
// svc send: an indexed equality plus a range filter over warm data.
func svcSmall(r *rng, label string, kind opKind, format string) op {
	q := r.intn(maxQuantity/2) + 1
	o := mk(label, "SELECT COUNT(*), SUM(l_quantity), MAX(l_extendedprice) FROM lineitem_%s WHERE l_suppkey = %d AND l_quantity >= %d AND l_quantity < %d",
		format, r.intn(maxSuppKey)+1, q, q+25)
	o.Kind = kind
	if kind == kindQuery {
		o.Pool = label // an ad-hoc text recurs only when its client's list wraps around
	}
	return o
}

// svcShared returns what every svc client sends alike: nine prepared
// statements and two streamed projections of a twelfth of lineitem (10 000
// rows, ~0.5 MB of NDJSON). A stream keeps the CPU busy for several
// milliseconds, and small requests that overlap one run slower; with larger
// streams about half of them overlapped, so their median sat between the two
// populations and wandered.
func svcShared(r *rng) (prepared, streams []op) {
	formats := []string{"csv", "json", "bin"}
	for i := 0; i < 9; i++ {
		prepared = append(prepared, svcSmall(r, "prepared", kindPrepared, formats[i%3]))
	}
	for i := 0; i < 2; i++ {
		from := r.intn(maxShipDate * 11 / 12)
		o := mk("stream", "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem_bin WHERE l_shipdate >= %d AND l_shipdate < %d", from, from+maxShipDate/12)
		o.Kind = kindStream
		streams = append(streams, o)
	}
	return prepared, streams
}

// svcClientRounds builds one client's request list: n rounds of twenty
// requests — nine ad-hoc aggregates whose texts never repeat (so each one
// misses the plan cache), the nine prepared statements and the two streams,
// in seeded order. The client cycles through the rounds; n×9 distinct texts
// are far more than the plan cache holds, so a repeat has been evicted.
func svcClientRounds(r *rng, prepared, streams []op, n int) [][]op {
	seen := map[string]bool{}
	var rounds [][]op
	for len(rounds) < n {
		round := append(append([]op(nil), prepared...), streams...)
		for i := 0; len(round) < 20; i++ {
			if o := svcSmall(r, "adhoc", kindQuery, []string{"csv", "json", "bin"}[i%3]); !seen[o.Text] {
				seen[o.Text] = true
				round = append(round, o)
			}
		}
		shuffle(r, round)
		rounds = append(rounds, round)
	}
	return rounds
}

// clusterOps: scatter-eligible shapes shared with raw_scan and join_sort,
// so the distributed tax reads directly against those workloads.
func clusterOps(t *tpch, r *rng) []op {
	half := int64(t.Orders.Rows / 2)
	key := r.intn(half) + 1
	q := r.intn(maxQuantity-3) + 1
	var ops []op
	for _, f := range []string{"csv", "bin"} {
		x := "lineitem_" + f
		ops = append(ops,
			mk("groupby/"+f, "SELECT l_linenumber, COUNT(*), SUM(l_quantity) FROM %s WHERE l_orderkey >= %d AND l_orderkey < %d GROUP BY l_linenumber", x, key, key+half),
			mk("agg4/"+f, "SELECT MAX(l_quantity), SUM(l_extendedprice), MIN(l_discount), COUNT(*) FROM %s WHERE l_orderkey >= %d AND l_orderkey < %d", x, key, key+half))
	}
	return append(ops,
		mk("order_limit", "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem_bin WHERE l_quantity >= %d AND l_quantity < %d ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 100", q, q+3),
		mk("join_bin", "SELECT COUNT(*), SUM(l.l_quantity) FROM orders_bin o JOIN lineitem_bin l ON o.o_orderkey = l.l_orderkey WHERE o.o_orderkey >= %d AND o.o_orderkey < %d", key, key+half),
		// A thousand groups: enough partial state for the JSON wire to show,
		// while 30 000 (join_sort's group_orderkey) would be nine tenths of
		// this workload's time.
		mk("group_suppkey", "SELECT l_suppkey, COUNT(*), SUM(l_quantity) FROM lineitem_bin GROUP BY l_suppkey"))
}

// hashOps is the reproducibility witness of an operation list.
func hashOps(rounds ...[]op) string {
	h := sha256.New()
	for _, ops := range rounds {
		for _, o := range ops {
			fmt.Fprintf(h, "%d\x00%s\x00", o.Kind, o.Text)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
