package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siesta/internal/core"
	"siesta/internal/obs"
	"siesta/internal/server/cache"
	"siesta/internal/trace"
)

// commitUpload streams tr through the chunked-upload API and commits it,
// returning the commit response.
func commitUpload(t *testing.T, base string, tr *trace.Trace) TraceCommitResponse {
	t.Helper()
	streams := chunkStreams(t, tr)
	resp, body := postJSON(t, base+"/v1/traces", TraceOpenRequest{NumRanks: len(streams)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open = %d: %s", resp.StatusCode, body)
	}
	var open TraceOpenResponse
	json.Unmarshal(body, &open)
	putChunks(t, base, open.ID, streams, 512)
	code, body := doJSON(t, http.MethodPost, base+"/v1/traces/"+open.ID+"/commit", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("commit = %d: %s", code, body)
	}
	var cr TraceCommitResponse
	json.Unmarshal(body, &cr)
	return cr
}

// libraryUploadC synthesizes tr the way the service's upload paths do —
// core.SynthesizeTrace and core.SynthesizeIngest under the options the
// service derives for a trace input — and returns both C sources.
func libraryUploadC(t *testing.T, tr *trace.Trace) (oneShot, streamed string) {
	t.Helper()
	opts, err := baseOptions(&SynthesizeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SynthesizeTrace(tr, traceInputOptions(opts, len(tr.Ranks)))
	if err != nil {
		t.Fatal(err)
	}
	iopts, err := ingestOptions(&TraceOpenRequest{NumRanks: len(tr.Ranks)})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewIngest(len(tr.Ranks), iopts)
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range chunkStreams(t, tr) {
		if err := in.Rank(r).Feed(s); err != nil {
			t.Fatal(err)
		}
	}
	ires, err := core.SynthesizeIngest(in, iopts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Generated.CSource(), ires.Generated.CSource()
}

// The service's upload paths are core's: the C a trace_base64 job and a
// streamed-upload job serve equals core.SynthesizeTrace and
// core.SynthesizeIngest run with the options the service derives.
func TestServedUploadsMatchCoreEntries(t *testing.T) {
	tr := recordedTrace(t, 8)
	wantOneShot, wantStreamed := libraryUploadC(t, tr)
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/synthesize",
		SynthesizeRequest{TraceBase64: base64.StdEncoding.EncodeToString(tr.Encode())})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trace_base64 POST = %d: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	json.Unmarshal(body, &sr)
	if v := waitJob(t, ts.URL, sr.Job.ID); v.Status != StatusDone {
		t.Fatalf("trace_base64 job: %s (%s)", v.Status, v.Error)
	}
	var art cache.Artifact
	getJSON(t, ts.URL+sr.ArtifactURL, &art)
	if art.CSource != wantOneShot {
		t.Error("trace_base64 artifact C differs from core.SynthesizeTrace with the service's options")
	}

	cr := commitUpload(t, ts.URL, tr)
	if v := waitJob(t, ts.URL, cr.Job.ID); v.Status != StatusDone {
		t.Fatalf("upload job: %s (%s)", v.Status, v.Error)
	}
	getJSON(t, ts.URL+cr.ArtifactURL, &art)
	if art.CSource != wantStreamed {
		t.Error("streamed-upload artifact C differs from core.SynthesizeIngest with the service's options")
	}
}

// retryHook is a LogWriter that runs fn once, on the first job_retry
// event — after the failed attempt, before the retry starts.
type retryHook struct {
	once sync.Once
	fn   func()
}

func (h *retryHook) Write(p []byte) (int, error) {
	if strings.Contains(string(p), `"event":"job_retry"`) {
		h.once.Do(h.fn)
	}
	return len(p), nil
}

// An ingest job whose first checkpoint save (the merge boundary) fails
// retries and settles done with the artifact an undisturbed upload gets:
// the retry reuses the program the consumed session already built.
func TestIngestRetryAfterMergeCheckpointFailure(t *testing.T) {
	tr := recordedTrace(t, 8)
	_, want := libraryUploadC(t, tr)

	dir := t.TempDir()
	// A non-empty directory where the first job's checkpoint blob goes
	// makes the atomic rename fail until the hook removes it.
	blocker := filepath.Join(dir, "checkpoints", "j-000001.ckpt")
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	hook := &retryHook{fn: func() { os.RemoveAll(blocker) }}
	s, ts := newStateServer(t, dir, Config{Workers: 1, LogWriter: hook})
	s.retryBase = time.Millisecond

	cr := commitUpload(t, ts.URL, tr)
	if cr.Job.ID != "j-000001" {
		t.Fatalf("job id %s; the blocker expects j-000001", cr.Job.ID)
	}
	v := waitJob(t, ts.URL, cr.Job.ID)
	if v.Status != StatusDone {
		t.Fatalf("ingest job settled %s (%s), want done after a retry", v.Status, v.Error)
	}
	if v.Attempts != 2 || s.mRetries.Value() != 1 {
		t.Errorf("attempts %d, retries %d; want 2 and 1", v.Attempts, s.mRetries.Value())
	}
	var art cache.Artifact
	getJSON(t, ts.URL+cr.ArtifactURL, &art)
	if art.CSource != want {
		t.Error("retried ingest job's C differs from an undisturbed synthesis")
	}
}

// inputsReleased reports whether a job record has dropped its work
// function and last checkpoint.
func inputsReleased(jb *job) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.work == nil && jb.resume == nil
}

// A settled job record — done, failed, canceled by the user while running
// or while queued — holds neither its work function (which pins the
// job's input) nor its last checkpoint.
func TestSettledJobsReleaseInputs(t *testing.T) {
	var sunk atomic.Int32
	s, ts := newTestServer(t, Config{Workers: 1,
		CheckpointSink: func(cache.Key, []byte) { sunk.Add(1) }})
	settled := func(result error) *job {
		return &job{
			app: "stub", ranks: 1, timeout: time.Minute,
			key:    cache.KeyFrom([]byte("stub"), []byte(time.Now().String())),
			resume: &core.Checkpoint{Phase: core.PhaseMerge},
			work: func(context.Context, *obs.Tracer, core.Checkpointer, *core.Checkpoint) (*cache.Artifact, []byte, error) {
				if result != nil {
					return nil, nil, result
				}
				return &cache.Artifact{App: "stub"}, nil, nil
			},
		}
	}
	for name, tc := range map[string]struct {
		jb   *job
		want Status
	}{
		"done":   {settled(nil), StatusDone},
		"failed": {settled(errors.New("input rejected")), StatusFailed},
	} {
		if ok, _ := s.admit(tc.jb); !ok {
			t.Fatalf("%s: admit", name)
		}
		if v := waitJob(t, ts.URL, tc.jb.id); v.Status != tc.want {
			t.Fatalf("%s: settled %s, want %s", name, v.Status, tc.want)
		}
		if !inputsReleased(tc.jb) {
			t.Errorf("%s job still holds its work function or checkpoint", name)
		}
	}

	release := make(chan struct{})
	defer close(release)
	running := blockerJob(release)
	running.resume = &core.Checkpoint{Phase: core.PhaseMerge}
	queued := blockerJob(release)
	queued.resume = &core.Checkpoint{Phase: core.PhaseMerge}
	if ok, _ := s.admit(running); !ok {
		t.Fatal("admit running")
	}
	waitStatus(t, running, StatusRunning)
	if ok, _ := s.admit(queued); !ok {
		t.Fatal("admit queued")
	}
	for _, jb := range []*job{queued, running} {
		if !s.requestCancel(jb, true) {
			t.Fatalf("cancel %s", jb.id)
		}
		waitStatus(t, jb, StatusCanceled)
		if !inputsReleased(jb) {
			t.Errorf("canceled job %s still holds its work function or checkpoint", jb.id)
		}
	}

	// A real upload, checkpointing through a fleet sink, ends the same way.
	tr := recordedTrace(t, 8)
	resp, body := postJSON(t, ts.URL+"/v1/synthesize",
		SynthesizeRequest{TraceBase64: base64.StdEncoding.EncodeToString(tr.Encode())})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trace_base64 POST = %d: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	json.Unmarshal(body, &sr)
	if v := waitJob(t, ts.URL, sr.Job.ID); v.Status != StatusDone {
		t.Fatalf("trace job: %s (%s)", v.Status, v.Error)
	}
	if sunk.Load() == 0 {
		t.Fatal("trace job wrote no checkpoint")
	}
	jb, _ := s.lookupJob(sr.Job.ID)
	if !inputsReleased(jb) {
		t.Error("done trace job still holds its work function or checkpoint")
	}
}
