package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// declaration is the part of BENCHMARK.json -compare needs.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is what
// the driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// series collects the untraced runs of a report: workload → metric → values.
func series(rep *report) (map[string]map[string][]float64, []string) {
	out := map[string]map[string][]float64{}
	var order []string
	for _, r := range rep.Results {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, order
}

// compareFiles prints one row per (workload, end-to-end metric): the base
// median, the new median, their ratio with its base, and a verdict. It
// reports whether any row regressed.
//
//	ok          the new median is not worse than the base by more than the bound
//	regressed   it is
//	unresolved  either file's own repeats spread wider than the bound, so the
//	            comparison cannot tell a change from noise
func compareFiles(w io.Writer, specPath, basePath, newPath string) (regressed bool, err error) {
	var decl declaration
	var base, next report
	if err := readJSON(specPath, &decl); err != nil {
		return false, err
	}
	if err := readJSON(basePath, &base); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &next); err != nil {
		return false, err
	}
	a, order := series(&base)
	b, _ := series(&next)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %-8s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "base median", "new median", "unit", "new/base", "spread a", "spread b", "bound", "verdict")
	for _, wl := range order {
		for _, m := range decl.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-20s missing from one file\n", wl, m.Name)
				regressed = true
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, regressed = "regressed", true
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %-8s %9.4f %7.1f%% %7.1f%% %6.1f%%  %s (base %.6g, n=%d/%d)\n",
				wl, m.Name, ma, mb, m.Unit, mb/ma, 100*sa, 100*sb, 100*m.Bound, verdict, ma, len(va), len(vb))
		}
	}
	return regressed, nil
}
