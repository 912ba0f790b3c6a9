package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]bool, names []string) {
	t.Helper()
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = true
	}
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

// The 1/50-scale run of everything: all seven workloads, verification, the
// untraced phase and the traced pass. It measures nothing; it keeps the
// benchmark compiling against the engine and honest about its own contract
// — every operation answered correctly, the staged replay agreeing with
// DB.QueryContext, and exactly the declared metrics reported.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			t.Fatalf("BENCHMARK.json declares unknown workload %q", name)
		}
		for _, traced := range []bool{false, true} {
			res, err := w.run(options{Seed: 42, Seconds: 0.2, Scale: 1.0 / 50, Setups: 1, Clients: 2, Trace: traced})
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced=%v): %d of %d operations failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s (traced=%v): declared metric %s is not reported", name, traced, m)
				}
			}
			for m := range res.Metrics {
				if !want[m] {
					t.Errorf("%s (traced=%v): reports undeclared metric %s", name, traced, m)
				}
			}
			if !traced {
				for m := range endToEnd {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", name, m, res.Metrics[m].Value)
					}
				}
				continue
			}
			if _, err := res.recorder.chromeTrace(); err != nil {
				t.Errorf("%s: trace export: %v", name, err)
			}
			switch name {
			case "raw_scan":
				expect(t, res, "cache.hit_ratio", func(v float64) bool { return v == 0 })
			case "adhoc_compile":
				expect(t, res, "engine.plan_cache_hit_ratio", func(v float64) bool { return v < 0.01 })
			case "svc":
				expect(t, res, "engine.plan_cache_hit_ratio", func(v float64) bool { return v > 0.4 })
			case "cluster3":
				expect(t, res, "cluster.scatter_ratio", func(v float64) bool { return v == 1 })
				expect(t, res, "cluster.fallbacks", func(v float64) bool { return v == 0 })
			}
		}
	}
}

func expect(t *testing.T, res *result, name string, ok func(float64) bool) {
	t.Helper()
	if v := res.Metrics[name].Value; !ok(v) {
		t.Errorf("%s: %s = %v", res.Workload, name, v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1.0, 1.1, 1.3], n=4) == [1.0, 1.1, 1.3]
	if q1, q3 = quartiles([]float64{1.0, 1.1, 1.3}); q1 != 1.0 || q3 != 1.3 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
		{"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
	}})
	runs := func(p50, qps, setup []float64) report {
		var rep report
		for i := range p50 {
			rep.Results = append(rep.Results, &result{Workload: "w", Metrics: map[string]metric{
				"query_p50_ms": {p50[i], "ms"}, "queries_per_s": {qps[i], "1/s"}, "setup_s": {setup[i], "s"},
			}})
		}
		return rep
	}
	base := write("a.json", runs([]float64{1.00, 1.01, 0.99}, []float64{100, 101, 99}, []float64{1, 1.5, 0.7}))
	next := write("b.json", runs([]float64{1.20, 1.21, 1.19}, []float64{95, 96, 94}, []float64{1, 1.4, 0.7}))

	var out bytes.Buffer
	regressed, err := compareFiles(&out, spec, base, next)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 20% slower median within a 10% bound was not reported as regressed")
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		for i, tok := range f {
			if tok == "ok" || tok == "regressed" || tok == "unresolved" {
				verdicts[f[1]] = f[i]
			}
		}
	}
	want := map[string]string{"query_p50_ms": "regressed", "queries_per_s": "ok", "setup_s": "unresolved"}
	for m, v := range want {
		if verdicts[m] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", m, verdicts[m], v, out.String())
		}
	}
	if regressed, _ = compareFiles(&out, spec, base, base); regressed {
		t.Error("a file compared with itself regressed")
	}
}
