// Command benchmark is the repository's one reproducible benchmark: seven
// workloads over seeded inputs, eight end-to-end metrics measured untraced,
// and a per-layer split from a separate traced pass that times the
// harness's own calls into each layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// report is the content of an -out file.
type report struct {
	Meta    meta      `json:"meta"`
	Results []*result `json:"results"`
}

// meta stamps where and how a report was produced.
type meta struct {
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"svc_clients"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Scales     scale   `json:"rows"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all seven)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input and operation list")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase of one run")
		trace    = flag.Int("trace", 0, "1: traced pass, reports the per-layer metrics; 0: untraced, reports the end-to-end metrics (all workloads: 1 runs both)")
		scaleF   = flag.Float64("scale", 1, "multiplies every generated row count")
		smoke    = flag.Bool("smoke", false, "1/50 scale, split-second phases: checks that everything runs, measures nothing")
		repeat   = flag.Int("repeat", 1, "repeat every run N times, with seeds seed, seed+1, …")
		out      = flag.String("out", "", "write every result as JSON to this file")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans as Chrome trace-event JSON (Perfetto) to this file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments, using the bounds in ./BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	// One P. This host's second core comes and goes — for minutes at a time
	// two busy threads each run at half speed (a CPU quota that GOMAXPROCS
	// does not see) — and with two Ps every time metric follows it: identical
	// runs differed by 15–30 %, with one P by 3 %. The workloads that measure
	// morsel-parallel execution ask their engines for it (see parallelism).
	runtime.GOMAXPROCS(1)
	opt := options{Seconds: *seconds, Scale: *scaleF, Setups: 5, Clients: min(runtime.NumCPU(), 4)}
	if *smoke {
		opt.Seconds, opt.Scale, opt.Setups = 0.3, 1.0/50, 1
	}
	rep := report{Meta: meta{
		GoVersion: runtime.Version(), Commit: commit(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: opt.Clients, Scale: opt.Scale, Seconds: opt.Seconds, Scales: fullScale.times(opt.Scale),
	}}
	fmt.Printf("# go %s, commit %s, nproc %d, GOMAXPROCS %d, svc clients %d, scale %g, %gs per phase\n",
		rep.Meta.GoVersion, rep.Meta.Commit, rep.Meta.NumCPU, rep.Meta.GOMAXPROCS, opt.Clients, opt.Scale, opt.Seconds)

	var todo []*workload
	passes := []bool{*trace == 1}
	if *name == "" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
		if *trace == 1 {
			passes = []bool{false, true}
		}
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	var last *result
	var rec *recorder
	for _, w := range todo {
		for _, traced := range passes {
			for i := 0; i < *repeat; i++ {
				o := opt
				o.Seed, o.Trace = *seed+uint64(i), traced
				res, err := w.run(o)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.Name, err))
				}
				printResult(res)
				rep.Results = append(rep.Results, res)
				last = res
				if res.recorder != nil {
					rec, res.recorder = res.recorder, nil // only the last trace is written
				}
				debug.FreeOSMemory()
			}
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" && rec != nil {
		data, err := rec.chromeTrace()
		if err == nil {
			err = os.WriteFile(*traceOut, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *name != "" {
		// The driver's contract: one JSON object, last line of stdout.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult prints every metric of one run by name, with its unit.
func printResult(res *result) {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Printf("\n== %s  seed %d  %s  attempted %d  failed %d  samples %d  gen %.2fs  verify %.2fs  inputs %.12s  ops %.12s\n",
		res.Workload, res.Seed, pass, res.Attempted, res.Failed, res.Samples, res.GenS, res.VerifyS, res.InputHash, res.OpsHash)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		note := ""
		if strings.HasPrefix(n, "query_p") {
			note = fmt.Sprintf("  (n=%d)", res.Samples)
		}
		fmt.Printf("   %-34s %14.6g %s%s\n", n, m.Value, m.Unit, note)
	}
	if len(res.Templates) > 0 {
		fmt.Print("   p50 ms per template:")
		for _, n := range sortedKeys(res.Templates) {
			fmt.Printf("  %s %.3g", n, res.Templates[n])
		}
		fmt.Println()
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
