package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"siesta/internal/apps"
	"siesta/internal/blocks"
	"siesta/internal/core"
	"siesta/internal/experiments"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/trace"
)

// benchResult is one serial-vs-parallel timing pair for a pipeline stage at
// a rank count. Speedup > 1 means the parallel run was faster. For the
// "search" stage the pair is cold solve vs memoized re-solve, and for the
// "overlap" stage it is overlap-disabled vs overlapped simulation runs at
// the same worker count. The alloc fields are mean heap allocations per
// run of each leg, so allocation-pressure regressions show up next to the
// timings they cause.
type benchResult struct {
	Name           string  `json:"name"`
	Ranks          int     `json:"ranks"`
	SerialNS       int64   `json:"serial_ns"`
	ParallelNS     int64   `json:"parallel_ns"`
	Speedup        float64 `json:"speedup"`
	SerialAllocs   uint64  `json:"serial_allocs"`
	ParallelAllocs uint64  `json:"parallel_allocs"`
}

// benchReport is the BENCH_9.json shape: enough context to compare runs
// across machines plus the stage timings.
type benchReport struct {
	App         string        `json:"app"`
	Iters       int           `json:"iters"`
	WorkScale   float64       `json:"work_scale"`
	Parallelism int           `json:"parallelism"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Reps        int           `json:"reps"`
	Results     []benchResult `json:"results"`
}

// runBench implements the `siesta bench` verb. By default it times the
// parallelized synthesis stages (globalize, merge build, proxy search,
// end-to-end synthesize) serial vs parallel across rank counts and writes a
// JSON report, tracking the repo's perf trajectory (BENCH_9.json, CI-generated). With
// -exp it instead regenerates the paper's evaluation tables through
// experiments.RunCLI; see EXPERIMENTS.md.
func runBench(args []string) {
	fs := flag.NewFlagSet("siesta bench", flag.ExitOnError)
	appName := fs.String("app", "CG", "application to benchmark")
	ranksList := fs.String("ranks", "8,32,64", "comma-separated rank counts")
	iters := fs.Int("iters", 2, "iteration override (0 = application default)")
	workScale := fs.Float64("work-scale", 0.05, "per-rank computation volume multiplier")
	reps := fs.Int("reps", 3, "repetitions per measurement (best-of)")
	parallel := fs.Int("parallel", 0, "parallel worker count (0 = GOMAXPROCS)")
	jsonOut := fs.String("json", "", "write the JSON report to this file (default stdout)")
	pprofOut := fs.String("pprof", "", "write a CPU profile covering the stage benchmarks to this file")
	exp := fs.String("exp", "", "regenerate paper experiments instead: table3, fig4..fig9, ablations, or all")
	quick := fs.Bool("quick", false, "with -exp: trim rank ladders and iterations for a fast pass")
	seed := fs.Uint64("seed", 1, "with -exp: base random seed")
	fs.Parse(args)

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "siesta bench: %v\n", err)
		os.Exit(1)
	}

	if *exp != "" {
		cfg := experiments.Config{Quick: *quick, Seed: *seed}
		if err := experiments.RunCLI(cfg, *exp, os.Stdout); err != nil {
			die(err)
		}
		return
	}

	par := *parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// Honesty gate: a report claiming parallel speedups measured on a
	// single-P runtime is meaningless — the "parallel" legs were timesliced
	// onto one core. Print to stdout if you must, but never persist it as
	// a BENCH_*.json other runs will be compared against.
	if *jsonOut != "" && par > 1 && runtime.GOMAXPROCS(0) < 2 {
		die(fmt.Errorf("refusing to write %s: -parallel %d claimed but GOMAXPROCS is 1, so the parallel legs cannot run concurrently; rerun on multicore hardware or pass -parallel 1", *jsonOut, par))
	}
	spec, err := apps.ByName(*appName)
	if err != nil {
		die(err)
	}
	var ranks []int
	for _, f := range strings.Split(*ranksList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			die(fmt.Errorf("bad -ranks entry %q", f))
		}
		ranks = append(ranks, n)
	}

	rep := benchReport{
		App: spec.Name, Iters: *iters, WorkScale: *workScale,
		Parallelism: par, GOMAXPROCS: runtime.GOMAXPROCS(0), Reps: *reps,
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// bestOf times fn (which must be repeatable) and keeps the fastest run,
	// also reporting the mean heap allocations one run performs (Mallocs is
	// a monotonic counter, so the delta over the reps is exact).
	bestOf := func(fn func()) (int64, uint64) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		best := int64(-1)
		for i := 0; i < *reps; i++ {
			start := time.Now()
			fn()
			if d := time.Since(start).Nanoseconds(); best < 0 || d < best {
				best = d
			}
		}
		runtime.ReadMemStats(&ms1)
		return best, (ms1.Mallocs - ms0.Mallocs) / uint64(*reps)
	}
	record := func(name string, nRanks int, serial, parallel int64, serialAllocs, parallelAllocs uint64) {
		sp := 0.0
		if parallel > 0 {
			sp = float64(serial) / float64(parallel)
		}
		rep.Results = append(rep.Results, benchResult{
			Name: name, Ranks: nRanks, SerialNS: serial, ParallelNS: parallel, Speedup: sp,
			SerialAllocs: serialAllocs, ParallelAllocs: parallelAllocs,
		})
		fmt.Fprintf(os.Stderr, "%-10s ranks=%-3d serial=%-12s parallel=%-12s speedup=%.2fx allocs=%d/%d\n",
			name, nRanks, time.Duration(serial), time.Duration(parallel), sp, serialAllocs, parallelAllocs)
	}

	for _, nRanks := range ranks {
		params := apps.Params{Ranks: nRanks, Iters: *iters, WorkScale: *workScale}
		fn, err := spec.Build(params)
		if err != nil {
			die(fmt.Errorf("%s at %d ranks: %w", spec.Name, nRanks, err))
		}

		// One traced run feeds the stage benchmarks.
		rec := trace.NewRecorder(nRanks, trace.Config{})
		w := mpi.NewWorld(mpi.Config{
			Platform: platform.A, Impl: netmodel.OpenMPI, Size: nRanks,
			NoiseSigma: 0.004, RunVariation: 0.02, Seed: 1, Interceptor: rec,
		})
		if _, err := w.Run(fn); err != nil {
			die(fmt.Errorf("traced run at %d ranks: %w", nRanks, err))
		}
		tr := rec.Trace(platform.A.Name, netmodel.OpenMPI.Name)

		// Stage 1: terminal-table merge (tree reduction).
		serial, serialAllocs := bestOf(func() { merge.GlobalizeParallel(tr, 0.05, 1).Release() })
		parallelNS, parAllocs := bestOf(func() { merge.GlobalizeParallel(tr, 0.05, par).Release() })
		record("globalize", nRanks, serial, parallelNS, serialAllocs, parAllocs)

		// Stage 2: full merge build (globalize + grammars + rule merge).
		serial, serialAllocs = bestOf(func() {
			if _, err := merge.Build(tr, merge.Options{Parallelism: 1}); err != nil {
				die(err)
			}
		})
		parallelNS, parAllocs = bestOf(func() {
			if _, err := merge.Build(tr, merge.Options{Parallelism: par}); err != nil {
				die(err)
			}
		})
		record("build", nRanks, serial, parallelNS, serialAllocs, parAllocs)

		// Stage 3: computation-proxy search, cold QP solve vs memoized.
		prog, err := merge.Build(tr, merge.Options{Parallelism: par})
		if err != nil {
			die(err)
		}
		bm := blocks.MeasureB(platform.A, nil)
		targets := make([]perfmodel.Counters, 0, len(prog.Clusters))
		for _, cl := range prog.Clusters {
			targets = append(targets, cl.Target())
		}
		cold, coldAllocs := bestOf(func() {
			for _, t := range targets {
				if _, err := blocks.Search(bm, t); err != nil {
					die(err)
				}
			}
		})
		warmMemo := blocks.NewMemo(0)
		solveMemo := func() {
			for _, t := range targets {
				if _, err := blocks.CachedSearch(warmMemo, bm, t); err != nil {
					die(err)
				}
			}
		}
		solveMemo() // prime
		warm, warmAllocs := bestOf(solveMemo)
		record("search", nRanks, cold, warm, coldAllocs, warmAllocs)

		// Stage 4: the whole pipeline. Each run gets a private search memo
		// so the serial run cannot pre-warm the cache for the parallel one:
		// the pair isolates what parallelism alone buys.
		synth := func(p int, noOverlap bool) {
			if _, err := core.Synthesize(fn, core.Options{
				Ranks: nRanks, Seed: 1, Parallelism: p,
				DisableOverlap: noOverlap,
				SearchMemo:     blocks.NewMemo(0),
			}); err != nil {
				die(err)
			}
		}
		serial, serialAllocs = bestOf(func() { synth(1, false) })
		parallelNS, parAllocs = bestOf(func() { synth(par, false) })
		record("synthesize", nRanks, serial, parallelNS, serialAllocs, parAllocs)

		// Stage 5: overlap ablation — same worker count both legs, the only
		// difference is whether the baseline/traced runs (and the B-matrix
		// warmup) overlap. This isolates the overlap's contribution from
		// everything else Parallelism buys.
		seqNS, seqAllocs := bestOf(func() { synth(par, true) })
		ovlNS, ovlAllocs := bestOf(func() { synth(par, false) })
		record("overlap", nRanks, seqNS, ovlNS, seqAllocs, ovlAllocs)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		die(err)
	}
	data = append(data, '\n')
	if *jsonOut == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr, "report written to %s\n", *jsonOut)
}
