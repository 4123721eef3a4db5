// Checkpoint/restart extension of the determinism suite (ISSUE 6): a
// synthesis interrupted at any phase boundary and resumed from its
// checkpoint must produce a byte-identical artifact — encoded program and
// generated C source — to an uninterrupted run. CI runs this under -race.
package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/blocks"
	"siesta/internal/core"
	"siesta/internal/mpi"
)

// memCheckpointer records every checkpoint in memory and can be told to
// fail at a given boundary.
type memCheckpointer struct {
	mu     sync.Mutex
	saved  []*core.Checkpoint
	failAt string
}

func (m *memCheckpointer) Save(cp *core.Checkpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failAt != "" && cp.Phase == m.failAt {
		return fmt.Errorf("injected checkpoint failure at %s", cp.Phase)
	}
	m.saved = append(m.saved, cp)
	return nil
}

func (m *memCheckpointer) at(phase string) *core.Checkpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, cp := range m.saved {
		if cp.Phase == phase {
			return cp
		}
	}
	return nil
}

func synthOpts(ranks int) core.Options {
	return core.Options{Ranks: ranks, Seed: 3}
}

func TestResumeFromEveryBoundaryIsByteIdentical(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}

	// Control: uninterrupted run, checkpointing every boundary. A private
	// memo isolates the run from the process-global DefaultMemo so the
	// post-search snapshot is exactly this run's solves.
	ck := &memCheckpointer{}
	ctrl := synthOpts(ranks)
	ctrl.Checkpointer = ck
	ctrl.SearchMemo = blocks.NewMemo(0)
	ref, err := core.Synthesize(fn, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	refProg := ref.Program.Encode()
	refSrc := ref.Generated.CSource()
	if ref.ResumedFrom != "" {
		t.Fatalf("control run reports ResumedFrom=%q", ref.ResumedFrom)
	}
	if len(ck.saved) != 3 {
		t.Fatalf("control run wrote %d checkpoints, want 3", len(ck.saved))
	}

	for _, phase := range []string{core.PhaseTrace, core.PhaseMerge, core.PhaseSearch} {
		phase := phase
		t.Run("resume_"+phase, func(t *testing.T) {
			cp := ck.at(phase)
			if cp == nil {
				t.Fatalf("no checkpoint at %s boundary", phase)
			}
			opts := synthOpts(ranks)
			opts.Resume = cp
			opts.SearchMemo = blocks.NewMemo(0) // cold memo: only the snapshot may warm it
			res, err := core.Synthesize(fn, opts)
			if err != nil {
				t.Fatalf("resume from %s: %v", phase, err)
			}
			if res.ResumedFrom != phase {
				t.Fatalf("ResumedFrom = %q, want %q", res.ResumedFrom, phase)
			}
			if res.BaselineRun != nil || res.TracedRun != nil {
				t.Error("resumed run re-ran the simulated executions")
			}
			if res.Overhead != ref.Overhead {
				t.Errorf("Overhead %v != control %v", res.Overhead, ref.Overhead)
			}
			if !bytes.Equal(res.Program.Encode(), refProg) {
				t.Errorf("resume from %s: encoded program differs from uninterrupted run", phase)
			}
			if res.Generated.CSource() != refSrc {
				t.Errorf("resume from %s: generated C source differs from uninterrupted run", phase)
			}
			if res.Program.Digest() != ref.Program.Digest() {
				t.Errorf("resume from %s: program digest moved", phase)
			}
			if res.Check == nil {
				t.Error("resumed run skipped static verification")
			}
		})
	}

	// Checkpoints themselves must be deterministic: a second uninterrupted
	// run writes payload-identical checkpoints.
	ck2 := &memCheckpointer{}
	again := synthOpts(ranks)
	again.Checkpointer = ck2
	again.SearchMemo = blocks.NewMemo(0)
	if _, err := core.Synthesize(fn, again); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{core.PhaseTrace, core.PhaseMerge, core.PhaseSearch} {
		a, b := ck.at(phase), ck2.at(phase)
		if !a.Equal(b) {
			t.Errorf("checkpoint at %s differs between identical runs", phase)
		}
	}
}

func TestResumeFingerprintMismatchForcesRecompute(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ck := &memCheckpointer{}
	opts := synthOpts(ranks)
	opts.Checkpointer = ck
	if _, err := core.Synthesize(fn, opts); err != nil {
		t.Fatal(err)
	}
	cp := ck.at(core.PhaseSearch)

	// Different seed → different fingerprint → the checkpoint must be
	// ignored and the run recomputed from scratch.
	other := synthOpts(ranks)
	other.Seed = 99
	other.Resume = cp
	res, err := core.Synthesize(fn, other)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != "" {
		t.Fatalf("mismatched checkpoint was honored (ResumedFrom=%q)", res.ResumedFrom)
	}
	if res.BaselineRun == nil || res.TracedRun == nil {
		t.Fatal("clean recompute skipped the simulated runs")
	}

	// Corrupt payload with a matching fingerprint must also degrade
	// cleanly. Truncating the trace bytes kills the whole checkpoint.
	bad := *cp
	bad.TraceBytes = cp.TraceBytes[:len(cp.TraceBytes)/2]
	brOpts := synthOpts(ranks)
	brOpts.Resume = &bad
	res, err = core.Synthesize(fn, brOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != "" {
		t.Fatalf("corrupt checkpoint was honored (ResumedFrom=%q)", res.ResumedFrom)
	}

	// A corrupt program section with an intact trace degrades to a
	// post-trace resume.
	bad = *cp
	bad.ProgramBytes = cp.ProgramBytes[:len(cp.ProgramBytes)/3]
	dgOpts := synthOpts(ranks)
	dgOpts.Resume = &bad
	res, err = core.Synthesize(fn, dgOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != core.PhaseTrace {
		t.Fatalf("degraded resume reports %q, want %q", res.ResumedFrom, core.PhaseTrace)
	}
}

func TestCheckpointSaveFailureIsTypedAndTransient(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ck := &memCheckpointer{failAt: core.PhaseMerge}
	opts := synthOpts(ranks)
	opts.Checkpointer = ck
	_, err = core.Synthesize(fn, opts)
	var cerr *core.CheckpointError
	if !errors.As(err, &cerr) {
		t.Fatalf("want *core.CheckpointError, got %v", err)
	}
	if cerr.Phase != core.PhaseMerge {
		t.Fatalf("failure phase %q, want %q", cerr.Phase, core.PhaseMerge)
	}
	// The trace boundary before the failure was still persisted — a retry
	// resumes from it.
	if ck.at(core.PhaseTrace) == nil {
		t.Fatal("post-trace checkpoint missing after later failure")
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := &core.Checkpoint{
		Fingerprint:  "fp-123",
		Phase:        core.PhaseMerge,
		Overhead:     0.0625,
		TraceBytes:   []byte{1, 2, 3, 0xff},
		ProgramBytes: []byte("SIESTA-PROG1-ish"),
		CheckSummary: "ok: 0 errors",
		MemoBytes:    []byte{9, 9},
	}
	got, err := core.DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cp) || !bytes.Equal(got.MemoBytes, cp.MemoBytes) || got.CheckSummary != cp.CheckSummary {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, cp)
	}
	// Truncations fail cleanly, never panic.
	enc := cp.Encode()
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := core.DecodeCheckpoint(enc[:cut]); err == nil {
			t.Fatalf("truncated checkpoint at %d decoded successfully", cut)
		}
	}
	if _, err := core.DecodeCheckpoint([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded")
	}
	bad := *cp
	bad.Phase = "lunch"
	if _, err := core.DecodeCheckpoint(bad.Encode()); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

// Trace and ingest inputs write the post-merge and post-search boundaries
// only, program-only (the caller holds the trace); resuming either input
// from either boundary must reproduce the uninterrupted output byte for
// byte. The ingest rows feed a fresh session per run, as a restarted
// service would receive the streams again.
func TestResumeTraceAndIngestInputsFromEveryBoundary(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Synthesize(fn, synthOpts(ranks))
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace

	inputs := map[string]func(opts core.Options) (*core.Result, error){
		"trace": func(opts core.Options) (*core.Result, error) {
			return core.SynthesizeTrace(tr, opts)
		},
		"ingest": func(opts core.Options) (*core.Result, error) {
			in, err := core.NewIngest(ranks, opts)
			if err != nil {
				return nil, err
			}
			streamTrace(t, in, tr, 97, nil)
			return core.SynthesizeIngest(in, opts)
		},
	}
	for _, name := range []string{"trace", "ingest"} {
		synth := inputs[name]
		t.Run(name, func(t *testing.T) {
			ck := &memCheckpointer{}
			ctrl := synthOpts(ranks)
			ctrl.Checkpointer = ck
			ctrl.SearchMemo = blocks.NewMemo(0)
			ref, err := synth(ctrl)
			if err != nil {
				t.Fatal(err)
			}
			if len(ck.saved) != 2 || ck.at(core.PhaseMerge) == nil || ck.at(core.PhaseSearch) == nil {
				t.Fatalf("wrote %d checkpoints, want the merge and search boundaries", len(ck.saved))
			}
			for _, cp := range ck.saved {
				if len(cp.TraceBytes) != 0 || len(cp.ProgramBytes) == 0 || cp.CheckSummary == "" {
					t.Errorf("%s checkpoint: %d trace bytes, %d program bytes, summary %q; want program-only with a verdict",
						cp.Phase, len(cp.TraceBytes), len(cp.ProgramBytes), cp.CheckSummary)
				}
			}
			for _, phase := range []string{core.PhaseMerge, core.PhaseSearch} {
				opts := synthOpts(ranks)
				opts.Resume = ck.at(phase)
				opts.SearchMemo = blocks.NewMemo(0)
				res, err := synth(opts)
				if err != nil {
					t.Fatalf("resume from %s: %v", phase, err)
				}
				if res.ResumedFrom != phase {
					t.Errorf("ResumedFrom = %q, want %q", res.ResumedFrom, phase)
				}
				if !bytes.Equal(res.Program.Encode(), ref.Program.Encode()) {
					t.Errorf("resume from %s: encoded program differs", phase)
				}
				if res.Generated.CSource() != ref.Generated.CSource() {
					t.Errorf("resume from %s: generated C source differs", phase)
				}
			}

			// A post-trace checkpoint carries nothing such a run can use:
			// it recomputes rather than failing.
			opts := synthOpts(ranks)
			opts.Resume = &core.Checkpoint{Fingerprint: ck.saved[0].Fingerprint, Phase: core.PhaseTrace}
			res, err := synth(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.ResumedFrom != "" || res.Generated.CSource() != ref.Generated.CSource() {
				t.Errorf("post-trace checkpoint: ResumedFrom=%q, C equal %t; want a clean recompute",
					res.ResumedFrom, res.Generated.CSource() == ref.Generated.CSource())
			}
		})
	}
}

// The post-search snapshot holds this synthesis's solves only, even when
// the memo it searched through also serves other syntheses.
func TestSearchCheckpointCarriesOnlyThisSynthesis(t *testing.T) {
	memo := blocks.NewMemo(0)
	build := func(name string, ranks int) func(*mpi.Rank) {
		spec, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return fn
	}
	for _, name := range []string{"IS", "MG", "Sweep3d"} {
		opts := synthOpts(8)
		opts.SearchMemo = memo
		if _, err := core.Synthesize(build(name, 8), opts); err != nil {
			t.Fatal(err)
		}
	}
	ck := &memCheckpointer{}
	opts := synthOpts(8)
	opts.SearchMemo = memo
	opts.Checkpointer = ck
	res, err := core.Synthesize(build("CG", 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	alone := blocks.NewMemo(0)
	n, err := alone.Import(ck.at(core.PhaseSearch).MemoBytes)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[blocks.Combination]bool{}
	for _, c := range res.Generated.Combos {
		distinct[c] = true
	}
	if n == 0 || n > len(res.Generated.Combos) || n < len(distinct) {
		t.Errorf("snapshot holds %d solves; want between %d and %d (this program's clusters)",
			n, len(distinct), len(res.Generated.Combos))
	}
	if n >= memo.Len() {
		t.Errorf("snapshot holds %d of the shared memo's %d entries; the other syntheses leaked in", n, memo.Len())
	}
	// And it still warms a cold resume to the identical output.
	again := synthOpts(8)
	again.Resume = ck.at(core.PhaseSearch)
	again.SearchMemo = blocks.NewMemo(0)
	r2, err := core.Synthesize(build("CG", 8), again)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Generated.CSource() != res.Generated.CSource() {
		t.Error("resume from the scoped snapshot changed the C source")
	}
	if hits, _ := again.SearchMemo.Stats(); hits == 0 {
		t.Error("scoped snapshot answered no search on resume")
	}
}
