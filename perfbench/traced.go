package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"siesta/internal/blocks"
	"siesta/internal/check"
	"siesta/internal/codegen"
	"siesta/internal/core"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/obs"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/qp"
	"siesta/internal/sequitur"
	"siesta/internal/statics"
	"siesta/internal/trace"
)

// The traced run splits sampled ops into calls on each layer's public
// functions, timed from here: the program itself carries no benchmark
// instrumentation. It runs after, and separately from, the untraced runs.

// span is one timed call. Spans of one op share Op; Parent 0 is a root.
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Duration // since the log's epoch
	Attrs          map[string]float64
}

// spanLog keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) begin(parent, op int, name string) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(l.epoch)})
	return len(l.spans)
}

func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.End = time.Since(l.epoch)
	return s.End - s.Start
}

// add records a span whose times were measured elsewhere.
func (l *spanLog) add(parent, op int, name string, start, end time.Time) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.epoch), End: end.Sub(l.epoch)})
	return len(l.spans)
}

func (l *spanLog) attr(id int, k string, v float64) {
	s := &l.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[k] = v
}

// layer runs fn as one span and reports its duration and heap allocations.
func (l *spanLog) layer(parent, op int, name string, fn func() error) (time.Duration, float64, error) {
	m0 := mallocs()
	id := l.begin(parent, op, name)
	err := fn()
	d := l.end(id)
	a := float64(mallocs() - m0)
	l.attr(id, "allocs", a)
	return d, a, err
}

// write saves the spans in Chrome trace_event format (open it in Perfetto
// or chrome://tracing): one track per op, parent ids in args.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Attrs {
			args[k] = v
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3, Pid: 1, Tid: s.Op, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// mergeClusterThreshold is merge.Options' default ClusterThreshold, which
// merge.Build applies when core leaves it zero.
const mergeClusterThreshold = 0.05

// decomposed is one op split into layer calls.
type decomposed struct {
	rec  map[string]float64 // per-layer values of this op
	c    string             // generated C source
	pipe time.Duration      // the layers core.Synthesize runs, summed
}

// decompose runs op through the layers core.Synthesize composes, one at a
// time and in order, plus side measurements (trace codec, standalone
// globalize and Sequitur, the streaming ingest path, statics) that the
// pipeline total leaves out.
func decompose(l *spanLog, opIdx int, fn func(*mpi.Rank), op libOp, spillDir string) (*decomposed, error) {
	plat, impl := platform.A, netmodel.OpenMPI
	par := runtime.GOMAXPROCS(0)
	root := l.begin(0, opIdx, "op "+op.String())
	defer l.end(root)
	out := &decomposed{rec: map[string]float64{}}
	rec := out.rec
	cfg := mpi.Config{Platform: plat, Impl: impl, Size: op.Ranks,
		NoiseSigma: 0.004, RunVariation: 0.02, Seed: op.Seed}

	d, a, err := l.layer(root, opIdx, "mpi.baseline", func() error {
		_, err := mpi.NewWorld(cfg).Run(fn)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	rec["mpi.baseline_ms"], rec["mpi.baseline_allocs"] = ms(d), a
	out.pipe += d

	var tr *trace.Trace
	recorder := trace.NewRecorder(op.Ranks, trace.Config{})
	tcfg := cfg
	tcfg.Interceptor = recorder
	d, _, err = l.layer(root, opIdx, "trace.traced_run", func() error {
		if _, err := mpi.NewWorld(tcfg).Run(fn); err != nil {
			return err
		}
		tr = recorder.Trace(plat.Name, impl.Name)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	rec["trace.traced_run_ms"] = ms(d)
	rec["trace.record_overhead_ms"] = ms(d) - rec["mpi.baseline_ms"]
	rec["trace.events"] = float64(tr.TotalEvents())
	out.pipe += d

	var enc []byte
	d, _, _ = l.layer(root, opIdx, "trace.encode", func() error { enc = tr.Encode(); return nil })
	rec["trace.encode_ms"], rec["trace.encoded_bytes"] = ms(d), float64(len(enc))
	var dec *trace.Trace
	d, _, err = l.layer(root, opIdx, "trace.decode", func() (err error) { dec, err = trace.Decode(enc); return err })
	if err != nil {
		return nil, fmt.Errorf("trace decode: %w", err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		return nil, errors.New("trace codec: decode then encode does not reproduce the bytes")
	}
	rec["trace.decode_ms"] = ms(d)

	// Globalize and Sequitur on their own, with merge.Build's parallelism;
	// Build repeats both, and its self time is what they leave.
	var glob *merge.Globalized
	d, a, _ = l.layer(root, opIdx, "merge.globalize", func() error {
		glob = merge.GlobalizeParallel(tr, mergeClusterThreshold, par)
		return nil
	})
	rec["merge.globalize_ms"], rec["merge.globalize_allocs"] = ms(d), a
	var grammars []*sequitur.Grammar
	d, _, _ = l.layer(root, opIdx, "sequitur.infer", func() error { grammars = inferAll(glob.Seqs, par); return nil })
	rec["sequitur.infer_ms"] = ms(d)
	for r, g := range grammars {
		rec["sequitur.symbols_in"] += float64(len(glob.Seqs[r]))
		rec["sequitur.rules_out"] += float64(len(g.Rules))
	}
	glob.Release()

	var prog *merge.Program
	mopts := merge.Options{Parallelism: par}
	d, a, err = l.layer(root, opIdx, "merge.build", func() (err error) { prog, err = merge.Build(tr, mopts); return err })
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	rec["merge.build_ms"], rec["merge.build_allocs"] = ms(d), a
	rec["merge.assemble_ms"] = max(0, rec["merge.build_ms"]-rec["merge.globalize_ms"]-rec["sequitur.infer_ms"])
	rec["merge.terminals"], rec["merge.rules"] = float64(len(prog.Terminals)), float64(len(prog.Rules))
	out.pipe += d

	if err := ingest(l, root, opIdx, tr, prog, mopts, spillDir, rec); err != nil {
		return nil, err
	}

	var rep *check.Report
	d, a, err = l.layer(root, opIdx, "check.verify", func() (err error) {
		rep, err = check.Verify(prog, check.Options{ExactBytes: true})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if rep.HasErrors() {
		return nil, fmt.Errorf("check: %s", rep.Summary())
	}
	rec["check.verify_ms"], rec["check.verify_allocs"] = ms(d), a
	out.pipe += d

	// core's default micro-benchmark noise, consumed once by MeasureB.
	noise := perfmodel.NewNoise(0.002, op.Seed^0xb10c5)
	var bm *qp.Matrix
	d, _, _ = l.layer(root, opIdx, "blocks.measure_b", func() error { bm = blocks.MeasureB(plat, noise); return nil })
	rec["blocks.measure_b_ms"] = ms(d)
	out.pipe += d
	memo := blocks.NewMemo(0)
	d, a, err = l.layer(root, opIdx, "blocks.search", func() error {
		for i, cl := range prog.Clusters {
			if _, err := blocks.CachedSearch(memo, bm, cl.Target()); err != nil {
				return fmt.Errorf("cluster %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	_, misses := memo.Stats()
	rec["blocks.search_ms"], rec["blocks.search_allocs"], rec["blocks.searches"] = ms(d), a, float64(misses)
	out.pipe += d

	d, a, err = l.layer(root, opIdx, "codegen.emit", func() error {
		gen, err := codegen.Generate(prog, codegen.Options{Platform: plat, Scale: 1, BenchNoise: noise,
			BMatrix: bm, SearchMemo: memo, Check: rep})
		if err != nil {
			return err
		}
		out.c = gen.CSource()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	rec["codegen.emit_ms"], rec["codegen.emit_allocs"] = ms(d), a
	out.pipe += d

	d, _, err = l.layer(root, opIdx, "statics.analyze", func() error {
		_, err := statics.Analyze(prog, plat, statics.Options{ExactBytes: true})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("statics: %w", err)
	}
	rec["statics.analyze_ms"] = ms(d)
	return out, nil
}

// ingest streams the op's own trace through merge.Ingest, rank chunks
// interleaved and spilling like serve-mix's spilling uploads, and checks
// the streamed program equals the batch one.
func ingest(l *spanLog, root, opIdx int, tr *trace.Trace, prog *merge.Program, mopts merge.Options,
	spillDir string, rec map[string]float64) error {
	streams := make([][]byte, len(tr.Ranks))
	for r, rt := range tr.Ranks {
		streams[r] = trace.ChunkEncodeRank(rt)
	}
	mopts.Spill = trace.SpillConfig{HighWater: spillHighWater, Dir: spillDir}
	in, err := merge.NewIngest(tr.NumRanks, tr.Platform, tr.Impl, mopts)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	defer in.Close()
	d, _, err := l.layer(root, opIdx, "merge.ingest_feed", func() error {
		offs := make([]int, len(streams))
		for progress := true; progress; {
			progress = false
			for r, s := range streams {
				if offs[r] >= len(s) {
					continue
				}
				end := min(offs[r]+chunkSize, len(s))
				if err := in.Rank(r).Feed(s[offs[r]:end]); err != nil {
					return fmt.Errorf("rank %d: %w", r, err)
				}
				offs[r], progress = end, true
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ingest feed: %w", err)
	}
	rec["merge.ingest_feed_ms"] = ms(d)
	var streamed *merge.Program
	d, _, err = l.layer(root, opIdx, "merge.ingest_build", func() (err error) { streamed, err = in.Build(); return err })
	if err != nil {
		return fmt.Errorf("ingest build: %w", err)
	}
	rec["merge.ingest_build_ms"] = ms(d)
	rec["merge.spilled_bytes"] = float64(in.SpillStats().SpilledBytes)
	rec["merge.reinferred"] = float64(in.Reinferred())
	if !bytes.Equal(streamed.Encode(), prog.Encode()) {
		return errors.New("ingest: streamed program differs from merge.Build's")
	}
	return nil
}

// inferAll infers one grammar per rank sequence on par workers, as
// merge.Build does.
func inferAll(seqs [][]int, par int) []*sequitur.Grammar {
	gs := make([]*sequitur.Grammar, len(seqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(seqs); i = int(next.Add(1) - 1) {
				b := sequitur.New()
				b.AppendAll(seqs[i])
				gs[i] = b.Grammar()
			}
		}()
	}
	wg.Wait()
	return gs
}

// checkpointCapture keeps the encoded checkpoints a synthesis writes.
type checkpointCapture struct{ blobs [][]byte }

func (c *checkpointCapture) Save(cp *core.Checkpoint) error {
	c.blobs = append(c.blobs, cp.Encode())
	return nil
}

// overlapSpans attaches core's own phase spans for op, read-only, under
// one span: they show how the overlapped baseline and traced runs line up
// against the serial decomposition.
func overlapSpans(l *spanLog, opIdx int, fn func(*mpi.Rank), op libOp) error {
	tracer := obs.New().WithoutTimelines()
	start := time.Now()
	_, err := core.Synthesize(fn, core.Options{Ranks: op.Ranks, Seed: op.Seed,
		SearchMemo: blocks.NewMemo(0), Tracer: tracer})
	endT := time.Now()
	if err != nil {
		return err
	}
	root := l.add(0, opIdx, "core.Synthesize "+op.String(), start, endT)
	for _, ev := range tracer.Phases() {
		s := start.Add(time.Duration(ev.Start * float64(time.Second)))
		l.add(root, opIdx, "core."+ev.Name, s, s.Add(time.Duration(ev.Dur*float64(time.Second))))
	}
	return nil
}

// tracedSample is the ops a workload's traced run decomposes.
func tracedSample(workload string, ws uint64) ([]libOp, error) {
	var ops []libOp
	if w := libraryWorkload(workload); w != nil {
		for i := 0; i < w.traced; i++ {
			ops = append(ops, w.op(ws, i))
		}
		return ops, nil
	}
	if workload != "serve-mix" {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return setupKeys(setupReps - 1), nil
}

// probeLimit caps the service probe of a library workload's traced run;
// serve-mix's probe runs the full window instead.
const probeLimit = 40

func tracedRun(workload string, ws uint64, window time.Duration, dir, spansPath string) (*result, error) {
	ops, err := tracedSample(workload, ws)
	if err != nil {
		return nil, err
	}
	out := &e2e{}
	l := &spanLog{epoch: time.Now()}
	fns := appFns{}
	layers := map[string][]float64{}
	put := func(k string, v float64) { layers[k] = append(layers[k], v) }

	// Untraced reference: the same ops through core.Synthesize. They share
	// one QP memo, whose hit ratio shows what memoization saves here.
	refMemo := blocks.NewMemo(0)
	ref := make([]*core.Result, len(ops))
	var untraced []float64
	m0 := snap()
	for i, op := range ops {
		t := time.Now()
		ref[i], err = synthesizeMemo(fns, op, refMemo, 0)
		untraced = append(untraced, ms(time.Since(t)))
		l.add(0, i+1, "untraced core.Synthesize "+op.String(), t, time.Now())
		out.attempted++
		if err != nil {
			out.fail("reference %v: %v", op, err)
		}
	}
	mem := snap().sub(m0)
	n := float64(len(ops))
	put("runtime.cpu_ms_per_op", ms(mem.cpu)/n)
	put("runtime.gc_cycles_per_op", float64(mem.numGC)/n)
	put("runtime.gc_pause_ms_per_op", float64(mem.pauseNs)/1e6/n)
	if workload != "serve-mix" {
		hits, misses := refMemo.Stats()
		put("blocks.memo_hit_ratio", ratio(hits, hits+misses))
	}

	spill, err := os.MkdirTemp(dir, "spill-*")
	if err != nil {
		return nil, err
	}
	var pipe []float64
	for i, op := range ops {
		fn, err := fns.get(op.App, op.Ranks)
		if err != nil {
			return nil, err
		}
		out.attempted++
		dc, err := decompose(l, i+1, fn, op, spill)
		if err != nil {
			out.fail("decompose %v: %v", op, err)
			continue
		}
		for k, v := range dc.rec {
			put(k, v)
		}
		pipe = append(pipe, ms(dc.pipe))
		if ref[i] != nil && dc.c != ref[i].Generated.CSource() {
			out.fail("decompose %v: C source differs from core.Synthesize's", op)
		}
		if err := overlapSpans(l, i+1, fn, op); err != nil {
			out.fail("overlap %v: %v", op, err)
		}
	}
	put("bench.trace_overhead_pct", (median(pipe)/median(untraced)-1)*100)

	// The fidelity sample's proxy replays, one span each.
	fid := ops // serve-mix's fidelity sample is its set-up keys
	if w := libraryWorkload(workload); w != nil {
		fid = w.fidelity
	}
	for i, op := range fid {
		out.attempted++
		res, err := synthesize(fns, op, 0)
		if err == nil {
			id := l.begin(0, 2000000+i, "proxy.replay "+op.String())
			_, err = res.RunProxy(nil, nil)
			put("proxy.replay_ms", ms(l.end(id)))
		}
		if err != nil {
			out.fail("replay %v: %v", op, err)
		}
	}

	if err := durableLayer(dir, fns, ops[0], put); err != nil {
		out.fail("durable: %v", err)
	}
	limit := probeLimit
	if workload == "serve-mix" {
		limit = 0
	}
	if err := serveProbe(l, dir, ws, window, limit, workload == "serve-mix", out, put); err != nil {
		return nil, err
	}
	hop, err := gatewayHop()
	if err != nil {
		out.fail("gateway hop: %v", err)
	} else {
		put("fleet.gateway_hop_ms", hop)
	}

	if err := l.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans    %-10s %d spans written to %s\n", workload, len(l.spans), spansPath)

	metrics := map[string]metric{}
	for k, vs := range layers {
		metrics[k] = metric{Value: median(vs), Unit: unitOf(k)}
	}
	return &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
