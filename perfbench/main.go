// Command perfbench is the repository's benchmark: closed-loop workloads
// over the synthesis library and the synthesis service, eleven end-to-end
// metrics per workload, correctness checks on every op, and a separate
// traced run that times each layer. See README.md beside this file.
//
//	perfbench --workload sweep-16 --seed 1 --seconds 30 --trace 0
//	perfbench --report --runs 5 --seconds 30 --save set-a.json
//	perfbench --compare set-a.json,set-b.json
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2e collects one untraced run's raw measurements.
type e2e struct {
	setups []time.Duration
	// lat holds the latencies percentiles are taken over.
	lat []time.Duration
	// ops counts timed ops attempted; completed, those that succeeded
	// (including any that lat excludes, such as cache hits).
	ops, completed int
	window         time.Duration
	mem            memSnap
	// peakRSS is VmHWM in MB over the timed window.
	peakRSS float64
	tailP   float64
	// attempted and failed count timed ops plus every correctness check.
	attempted, failed int
	fid               []fidRow
	// diag holds diagnostics that are printed but gate nothing.
	diag map[string]float64
}

func (s memSnap) sub(o memSnap) memSnap {
	return memSnap{mallocs: s.mallocs - o.mallocs, totalAlloc: s.totalAlloc - o.totalAlloc,
		numGC: s.numGC - o.numGC, pauseNs: s.pauseNs - o.pauseNs, cpu: s.cpu - o.cpu,
		steal: s.steal - o.steal, ticks: s.ticks - o.ticks}
}

func (e *e2e) fail(format string, args ...any) {
	e.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

func (e *e2e) metrics() map[string]metric {
	setups := make([]float64, len(e.setups))
	for i, d := range e.setups {
		setups[i] = d.Seconds()
	}
	ops := float64(e.ops)
	var rep, tim float64
	var cBytes int
	for _, r := range e.fid {
		rep += r.replayPct
		tim += r.timePct
		cBytes += r.cBytes
	}
	if n := float64(len(e.fid)); n > 0 {
		rep, tim = rep/n, tim/n
	}
	lat := msAll(e.lat)
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {float64(e.completed) / e.window.Seconds(), "1/s"},
		"latency_p50_ms":   {median(lat), "ms"},
		"latency_tail_ms":  {percentile(lat, e.tailP), "ms"},
		"allocs_per_op":    {float64(e.mem.mallocs) / ops, "count"},
		"alloc_mb_per_op":  {float64(e.mem.totalAlloc) / ops / 1e6, "MB"},
		"peak_rss_mb":      {e.peakRSS, "MB"},
		"ok_frac":          {float64(e.attempted-e.failed) / float64(e.attempted), "ratio"},
		"replay_error_pct": {rep, "%"},
		"time_error_pct":   {tim, "%"},
		"proxy_c_bytes":    {float64(cBytes), "bytes"},
	}
}

// report prints the human-readable rows: the fidelity sample next to the
// workload totals, the latency sample count and tail percentile, and the
// diagnostics.
func (e *e2e) report(workload string) {
	for _, r := range e.fid {
		fmt.Printf("fidelity %-10s %-28s replay_error %6.3f%%  time_error %6.3f%%  c_source %7d bytes\n",
			workload, r.name, r.replayPct, r.timePct, r.cBytes)
	}
	fmt.Printf("latency  %-10s %d samples, tail = p%g (%d beyond; the rule gives p%g at this count)\n",
		workload, len(e.lat), e.tailP, beyond(len(e.lat), e.tailP), tailPercentile(len(e.lat)))
	if e.ops > 0 {
		e.diag["runtime.cpu_ms_per_op"] = ms(e.mem.cpu) / float64(e.ops)
		e.diag["runtime.gc_cycles_per_op"] = float64(e.mem.numGC) / float64(e.ops)
	}
	// The share of the machine's CPU time the hypervisor gave to other
	// guests during the window: one cause of wall-time drift between runs.
	if e.mem.ticks > 0 {
		e.diag["host.steal_pct"] = 100 * float64(e.mem.steal) / float64(e.mem.ticks)
	}
	if len(e.diag) > 0 {
		for k, v := range e.diag {
			e.diag[k] = finite(v)
		}
		line, _ := json.Marshal(map[string]any{"diagnostics": e.diag}) // finite floats always marshal
		fmt.Println(string(line))
	}
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0. They arise
// only from an empty sample, when every op failed; the result then also
// reads correct: false.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

var workloads = []string{"sweep-16", "cg-256", "serve-mix"}

func main() {
	workload := flag.String("workload", "", "workload: sweep-16, cg-256 or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed; every op's input derives from it")
	seconds := flag.Float64("seconds", 35, "length of the timed window")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for state dirs and spill files")
	spans := flag.String("spans", "", "traced run: write spans here (default .bench_build/spans/<workload>-seed<seed>.json)")
	doReport := flag.Bool("report", false, "steadiness report: repeat every workload and print each metric's values and spread")
	runs := flag.Int("runs", 5, "report: runs per workload")
	save := flag.String("save", "", "report: also write the set's values as JSON here, for --compare")
	compare := flag.String("compare", "", "A.json,B.json: compare two saved sets against the bounds in ./BENCHMARK.json")
	flag.Parse()

	if *doReport {
		if err := steadiness(*runs, *seed, *seconds, *save); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *compare != "" {
		over, err := compareFiles(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		if over > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d metric(s) over their bound\n", over)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "run-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(*workload, *seed, window, *traced == 1, dir, *spans)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for k, m := range res.Metrics {
		res.Metrics[k] = metric{Value: finite(m.Value), Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(workload string, seed uint64, window time.Duration, traced bool, dir, spans string) (*result, error) {
	if traced {
		if spans == "" {
			spans = fmt.Sprintf(".bench_build/spans/%s-seed%d.json", workload, seed)
		}
		return tracedRun(workload, seed, window, dir, spans)
	}
	var e *e2e
	var err error
	if w := libraryWorkload(workload); w != nil {
		e, err = w.run(seed, window)
	} else if workload == "serve-mix" {
		e, err = runServeMix(seed, window, dir)
	} else {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	e.report(workload)
	return &result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed,
		Metrics: e.metrics()}, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
