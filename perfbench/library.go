package main

import (
	"fmt"
	"time"

	"siesta/internal/apps"
	"siesta/internal/blocks"
	"siesta/internal/core"
	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
)

// libWorkload is a closed-loop, single-caller workload whose op is one
// core.Synthesize call with default options.
type libWorkload struct {
	// op is op i under workload seed ws.
	op func(ws uint64, i int) libOp
	// warmup is the fixed op list each set-up runs once, outside the
	// deck: it lets lazy pools and the heap reach their working size.
	warmup []libOp
	// sample is how many leading ops of the timed window are re-run at
	// Parallelism=1 and compared byte for byte.
	sample int
	// fidelity is the fixed fidelity sample (paper Table 3 errors).
	fidelity []libOp
	// tailP is the fixed tail percentile; see BENCHMARK.json.
	tailP float64
	// traced is how many leading ops the traced run decomposes.
	traced int
}

// setupSeed seeds the fixed warm-up ops; it never changes with --seed.
const setupSeed = 0x5e7

// fidelitySeed is the seed of every fixed fidelity-sample op.
const fidelitySeed = 42

// setupReps is how many fresh set-ups a run times; setup_s is their median.
const setupReps = 7

func sweep16() *libWorkload {
	w := &libWorkload{op: sweepOp, tailP: 99, traced: len(apps.All())}
	for i, sp := range apps.All() {
		w.warmup = append(w.warmup, libOp{App: sp.Name, Ranks: sweepRanks(sp), Seed: opSeed(setupSeed, "warmup", i)})
		w.fidelity = append(w.fidelity, libOp{App: sp.Name, Ranks: sweepRanks(sp), Seed: fidelitySeed})
	}
	w.sample = len(apps.All())
	return w
}

func cg256() *libWorkload {
	return &libWorkload{
		op:       cgOp,
		warmup:   []libOp{{App: "CG", Ranks: 256, Seed: opSeed(setupSeed, "warmup", 0)}},
		sample:   1,
		fidelity: []libOp{{App: "CG", Ranks: 256, Seed: fidelitySeed}},
		tailP:    85,
		traced:   3,
	}
}

// libraryWorkload returns the named library workload, nil for any other
// name.
func libraryWorkload(name string) *libWorkload {
	switch name {
	case "sweep-16":
		return sweep16()
	case "cg-256":
		return cg256()
	}
	return nil
}

// appFns builds (once) and caches the SPMD function of each app shape,
// keyed by app and ranks.
type appFns map[libOp]func(*mpi.Rank)

func (f appFns) get(app string, ranks int) (func(*mpi.Rank), error) {
	k := libOp{App: app, Ranks: ranks}
	if fn, ok := f[k]; ok {
		return fn, nil
	}
	sp, err := apps.ByName(app)
	if err != nil {
		return nil, err
	}
	fn, err := sp.Build(apps.Params{Ranks: ranks})
	if err != nil {
		return nil, fmt.Errorf("build %s@%d: %w", app, ranks, err)
	}
	f[k] = fn
	return fn, nil
}

// synthesize runs one op through core.Synthesize with default options
// (par 0 = GOMAXPROCS) and checks its error and static-check verdict. Each
// op gets a new QP memo: the deck repeats seeds, and a repeat must solve
// cold like the first time.
func synthesize(fns appFns, op libOp, par int) (*core.Result, error) {
	return synthesizeMemo(fns, op, blocks.NewMemo(0), par)
}

func synthesizeMemo(fns appFns, op libOp, memo *blocks.Memo, par int) (*core.Result, error) {
	fn, err := fns.get(op.App, op.Ranks)
	if err != nil {
		return nil, err
	}
	res, err := core.Synthesize(fn, core.Options{Ranks: op.Ranks, Seed: op.Seed,
		SearchMemo: memo, Parallelism: par})
	if err != nil {
		return nil, fmt.Errorf("%v: %w", op, err)
	}
	if res.Check == nil || res.Check.HasErrors() || res.Generated == nil {
		return nil, fmt.Errorf("%v: static check verdict not clean", op)
	}
	return res, nil
}

// setup is one fresh set-up: app functions, a B matrix measurement, and
// the warm-up ops.
func (w *libWorkload) setup() (appFns, error) {
	// The fidelity sample names every app shape the workload runs.
	fns := appFns{}
	for _, op := range w.fidelity {
		if _, err := fns.get(op.App, op.Ranks); err != nil {
			return nil, err
		}
	}
	blocks.MeasureB(platform.A, perfmodel.NewNoise(0.002, setupSeed))
	for _, op := range w.warmup {
		if _, err := synthesize(fns, op, 0); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return fns, nil
}

func (w *libWorkload) run(ws uint64, window time.Duration) (*e2e, error) {
	out := &e2e{tailP: w.tailP, diag: map[string]float64{}}
	var fns appFns
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if fns, err = w.setup(); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
	}

	if err := quiesce(); err != nil {
		return nil, err
	}
	kept := make([]*core.Result, 0, w.sample)
	m0 := snap()
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		op := w.op(ws, i)
		t := time.Now()
		res, err := synthesize(fns, op, 0)
		out.lat = append(out.lat, time.Since(t))
		out.ops++
		out.attempted++
		if err != nil {
			out.fail("op %d: %v", i, err)
		} else {
			out.completed++
		}
		if i < w.sample {
			kept = append(kept, res)
		}
	}
	out.window = time.Since(start)
	m1 := snap()
	out.mem = m1.sub(m0)
	var err error
	if out.peakRSS, err = peakRSSMB(); err != nil {
		return nil, err
	}

	// Determinism contract: the sample's output is byte-identical at
	// Parallelism=1.
	for i, res := range kept {
		out.attempted++
		if res == nil {
			out.fail("determinism sample %d: op failed", i)
			continue
		}
		op := w.op(ws, i)
		serial, err := synthesize(fns, op, 1)
		if err != nil {
			out.fail("determinism sample %v: %v", op, err)
			continue
		}
		if serial.Generated.CSource() != res.Generated.CSource() {
			out.fail("determinism sample %v: C source differs at Parallelism=1", op)
		}
	}

	for _, op := range w.fidelity {
		out.attempted++
		row, err := fidelityRow(fns, op)
		if err != nil {
			out.fail("fidelity %v: %v", op, err)
			continue
		}
		out.fid = append(out.fid, row)
	}
	return out, nil
}

// fidRow is one fidelity-sample op: the proxy replayed against its
// baseline (paper Table 3).
type fidRow struct {
	name      string
	replayPct float64
	timePct   float64
	cBytes    int
}

func fidelityRow(fns appFns, op libOp) (fidRow, error) {
	res, err := synthesize(fns, op, 0)
	if err != nil {
		return fidRow{}, err
	}
	return replayRow(op.String(), res)
}

func replayRow(name string, res *core.Result) (fidRow, error) {
	prox, err := res.RunProxy(nil, nil)
	if err != nil {
		return fidRow{}, fmt.Errorf("replay %s: %w", name, err)
	}
	return fidRow{
		name:      name,
		replayPct: core.ReplayError(res.BaselineRun, prox) * 100,
		timePct:   core.TimeError(float64(prox.ExecTime), float64(res.BaselineRun.ExecTime)) * 100,
		cBytes:    len(res.Generated.CSource()),
	}, nil
}
