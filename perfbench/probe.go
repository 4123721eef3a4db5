package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"siesta/internal/blocks"
	"siesta/internal/core"
	"siesta/internal/durable"
	"siesta/internal/fleet"
	"siesta/internal/server"
)

// Service-side layers for the traced run: the synthesis service, its
// artifact cache, the durability layer, and the fleet gateway hop.

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

// scrape reads the named counters from the service's /metrics page.
func (c client) scrape(names ...string) (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", f[0], err)
			}
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// serveProbe drives serve-mix's request sequence against a fresh service
// (limit requests, or the whole window when limit is 0) and reports the
// server, cache and durability layers. Each request becomes a span with
// its queue wait and run as children.
func serveProbe(l *spanLog, dir string, ws uint64, window time.Duration, limit int, memoFromService bool,
	out *e2e, put func(string, float64)) error {
	env, err := setupServe(dir, setupReps-1, appFns{})
	if err != nil {
		return err
	}
	defer env.close()
	counters := []string{"siesta_cache_hits_total", "siesta_cache_misses_total", "siesta_checkpoints_written_total"}
	before, err := env.scrape(counters...)
	if err != nil {
		return err
	}
	h0, m0 := blocks.DefaultMemo.Stats()
	results, _ := env.drive(ws, window, limit, nil)
	h1, m1 := blocks.DefaultMemo.Stats()
	after, err := env.scrape(counters...)
	if err != nil {
		return err
	}
	if memoFromService {
		put("blocks.memo_hit_ratio", ratio(h1-h0, h1-h0+m1-m0))
	}

	var queue, run, admit, hit, puts []float64
	rejected, synthesized := 0, 0
	for _, r := range results {
		out.attempted++
		if r.rejected {
			rejected++
		}
		if !r.ok {
			out.fail("probe %v", r.err)
			continue
		}
		end := r.start.Add(r.latency)
		id := l.add(0, 1000000+r.idx, "request "+r.req.Kind.String(), r.start, end)
		if r.req.Kind == kindHit {
			hit = append(hit, ms(r.rtt))
			continue
		}
		synthesized++
		admit = append(admit, ms(r.rtt))
		puts = append(puts, msAll(r.puts)...)
		if !r.started.IsZero() {
			queue = append(queue, ms(r.started.Sub(r.created)))
			run = append(run, ms(r.finished.Sub(r.started)))
			l.add(id, 1000000+r.idx, "server.queue", r.created, r.started)
			l.add(id, 1000000+r.idx, "server.run", r.started, r.finished)
		}
	}
	put("server.queue_wait_p50_ms", median(queue))
	put("server.queue_wait_tail_ms", percentile(queue, tailPercentile(len(queue))))
	put("server.run_ms", median(run))
	put("server.admit_ms", median(admit))
	put("server.hit_ms", median(hit))
	put("server.put_chunk_ms", median(puts))
	put("server.rejected", float64(rejected))
	dh := after["siesta_cache_hits_total"] - before["siesta_cache_hits_total"]
	dm := after["siesta_cache_misses_total"] - before["siesta_cache_misses_total"]
	put("cache.hit_ratio", dh/(dh+dm))
	if synthesized > 0 {
		put("durable.checkpoints_per_job",
			(after["siesta_checkpoints_written_total"]-before["siesta_checkpoints_written_total"])/float64(synthesized))
	}
	return nil
}

// durableLayer times the durability layer on the benchmark's own files: a
// journal's fsynced appends, and saving the checkpoints one synthesis of
// op writes.
func durableLayer(dir string, fns appFns, op libOp, put func(string, float64)) error {
	j, _, err := durable.Open(filepath.Join(dir, "bench.journal"))
	if err != nil {
		return err
	}
	req := []byte(fmt.Sprintf(`{"app":%q,"ranks":%d,"seed":%d}`, op.App, op.Ranks, op.Seed))
	for i := 0; i < 20; i++ {
		t := time.Now()
		err := j.Append(&durable.Record{Type: durable.TypeEnqueued, Job: fmt.Sprintf("bench-%d", i),
			Request: req, Key: strings.Repeat("0", 64)})
		put("durable.append_ms", ms(time.Since(t)))
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}

	fn, err := fns.get(op.App, op.Ranks)
	if err != nil {
		return err
	}
	capture := &checkpointCapture{}
	if _, err := core.Synthesize(fn, core.Options{Ranks: op.Ranks, Seed: op.Seed,
		SearchMemo: blocks.NewMemo(0), Checkpointer: capture}); err != nil {
		return err
	}
	store, err := durable.NewCheckpointStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		return err
	}
	var size int
	t := time.Now()
	for i, b := range capture.blobs {
		if _, err := store.Save(fmt.Sprintf("bench-%d", i), b); err != nil {
			return err
		}
		size += len(b)
	}
	put("durable.checkpoint_save_ms", ms(time.Since(t)))
	put("durable.checkpoint_bytes", float64(size))
	return nil
}

// gatewayHop is the fleet gateway's added latency: the median of cache
// hits sent through an in-process gateway minus the median of the same
// hit sent straight to its one worker.
func gatewayHop() (float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var loops sync.WaitGroup
	var servers []*http.Server
	var wk *fleet.Worker
	// Teardown: stop the heartbeat and routing loops, let the worker leave
	// and drain, then close both listeners and wait for every goroutine.
	defer func() {
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), time.Minute)
		defer scancel()
		if wk != nil {
			wk.Close(sctx)
		}
		for _, hs := range servers {
			hs.Shutdown(sctx)
		}
		loops.Wait()
	}()
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		servers = append(servers, hs)
		loops.Add(1)
		go func() {
			defer loops.Done()
			hs.Serve(ln) // returns ErrServerClosed on Shutdown
		}()
		return "http://" + ln.Addr().String(), nil
	}

	gw := fleet.NewGateway(fleet.GatewayConfig{RouteRefresh: 50 * time.Millisecond})
	gwURL, err := serve(gw.Handler())
	if err != nil {
		return 0, err
	}
	loops.Add(1)
	go func() {
		defer loops.Done()
		gw.Run(ctx)
	}()
	// The worker's URL must exist before the worker: bind the listener
	// first and hand the handler over once built.
	var wh http.Handler
	var whMu sync.Mutex
	wURL, err := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		whMu.Lock()
		h := wh
		whMu.Unlock()
		if h == nil {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	if err != nil {
		return 0, err
	}
	if wk, err = fleet.NewWorker(fleet.WorkerConfig{ID: "bench-w1", AdvertiseURL: wURL, RegistryURL: gwURL,
		Heartbeat: 100 * time.Millisecond, Server: server.Config{Workers: 1}}); err != nil {
		return 0, err
	}
	whMu.Lock()
	wh = wk.Handler()
	whMu.Unlock()
	loops.Add(1)
	go func() {
		defer loops.Done()
		wk.Run(ctx)
	}()

	gwc, wc := newClient(gwURL), newClient(wURL)
	for deadline := time.Now().Add(15 * time.Second); ; {
		var hz struct {
			Workers int `json:"workers"`
		}
		if _, err := gwc.do(http.MethodGet, "/healthz", nil, &hz); err == nil && hz.Workers == 1 {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("worker never joined the gateway's route table")
		}
		time.Sleep(20 * time.Millisecond)
	}
	body := server.SynthesizeRequest{App: "CG", Ranks: 8, Seed: fidelitySeed}
	var first server.SynthesizeResponse
	if _, err := gwc.postJSON("/v1/synthesize", body, &first); err != nil {
		return 0, err
	}
	if _, err := gwc.wait(first.Job.ID); err != nil {
		return 0, err
	}
	var viaGW, direct []float64
	for i := 0; i < 40; i++ {
		for _, c := range []client{gwc, wc} {
			var resp server.SynthesizeResponse
			t := time.Now()
			if _, err := c.postJSON("/v1/synthesize", body, &resp); err != nil {
				return 0, err
			}
			d := ms(time.Since(t))
			if !resp.Cached {
				return 0, fmt.Errorf("repeat request via %s was not a cache hit", c.base)
			}
			if c.base == gwURL {
				viaGW = append(viaGW, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	return median(viaGW) - median(direct), nil
}
