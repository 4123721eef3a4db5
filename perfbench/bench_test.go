package main

import (
	"math"
	"testing"

	"siesta/internal/apps"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {19, 50}, {20, 50}, {40, 75}, {95, 85}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {2000, 99.5}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The chosen percentile has at least minBeyond samples beyond it, and
	// the next higher one on the ladder does not.
	for n := 1; n <= 20000; n++ {
		p := tailPercentile(n)
		if p == 50 {
			continue
		}
		if beyond(n, p) < minBeyond {
			t.Fatalf("n=%d: p%g has only %d samples beyond", n, p, beyond(n, p))
		}
		for i, q := range tailLadder {
			if q == p && i > 0 && beyond(n, tailLadder[i-1]) >= minBeyond {
				t.Fatalf("n=%d: p%g chosen but p%g also has %d beyond", n, p, tailLadder[i-1], beyond(n, tailLadder[i-1]))
			}
		}
	}
}

// The fixed tail percentiles are what the rule gives at each workload's
// expected op count on the reference box (README.md).
func TestFixedTailPercentiles(t *testing.T) {
	for _, c := range []struct {
		name string
		p    float64
		ops  int
	}{{"sweep-16", sweep16().tailP, 1000}, {"cg-256", cg256().tailP, 67}, {"serve-mix", serveTailP, 1000}} {
		if beyond(c.ops, c.p) < minBeyond {
			t.Errorf("%s: p%g has %d samples beyond at %d ops", c.name, c.p, beyond(c.ops, c.p), c.ops)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestOpSeedDerivation(t *testing.T) {
	if opSeed(7, "cg-256", 3) != opSeed(7, "cg-256", 3) {
		t.Fatal("opSeed is not deterministic")
	}
	seen := map[uint64]bool{}
	for _, ws := range []uint64{0, 1, 2, 1 << 40} {
		for _, stream := range []string{"sweep-16", "cg-256", "serve-mix"} {
			for i := 0; i < 2000; i++ {
				s := opSeed(ws, stream, i)
				if s >= 1<<48 {
					t.Fatalf("opSeed(%d, %s, %d) = %d exceeds 48 bits", ws, stream, i, s)
				}
				if seen[s] {
					t.Fatalf("opSeed(%d, %s, %d) = %d repeats an earlier seed", ws, stream, i, s)
				}
				seen[s] = true
			}
		}
	}
	// Ops see only the derived seeds: the workload seed changes them all.
	if cgOp(1, 0).Seed == cgOp(2, 0).Seed || sweepOp(1, 5) == sweepOp(2, 5) {
		t.Error("different workload seeds gave the same op")
	}
}

func TestSweepCyclesCoverEveryApp(t *testing.T) {
	n := len(apps.All())
	for ws := uint64(0); ws < 5; ws++ {
		for cycle := 0; cycle < 4; cycle++ {
			seen := map[string]bool{}
			for i := cycle * n; i < (cycle+1)*n; i++ {
				op := sweepOp(ws, i)
				seen[op.App] = true
				if want := 16; op.App == "LULESH" {
					if op.Ranks != 8 {
						t.Errorf("LULESH at %d ranks, want 8", op.Ranks)
					}
				} else if op.Ranks != want {
					t.Errorf("%s at %d ranks, want %d", op.App, op.Ranks, want)
				}
			}
			if len(seen) != n {
				t.Errorf("ws=%d cycle %d covers %d apps, want %d", ws, cycle, len(seen), n)
			}
		}
	}
}

func TestServeSequenceDeterministic(t *testing.T) {
	keys := len(setupKeys(0))
	for i := 0; i < 500; i++ {
		if serveRequest(9, i, keys) != serveRequest(9, i, keys) {
			t.Fatalf("request %d differs between two derivations", i)
		}
	}
	differ := 0
	for i := 0; i < 100; i++ {
		if serveRequest(9, i, keys) != serveRequest(10, i, keys) {
			differ++
		}
	}
	if differ < 50 {
		t.Errorf("only %d of 100 requests change with the workload seed", differ)
	}
}

func TestServeClassShares(t *testing.T) {
	want := map[reqKind]int{}
	for _, k := range blockKinds {
		want[k]++
	}
	keys := len(setupKeys(0))
	nb := len(blockKinds)
	for ws := uint64(0); ws < 10; ws++ {
		for b := 0; b < 50; b++ {
			got := map[reqKind]int{}
			for i := b * nb; i < (b+1)*nb; i++ {
				got[serveRequest(ws, i, keys).Kind]++
			}
			for k := reqKind(0); k < numKinds; k++ {
				if got[k] != want[k] {
					t.Fatalf("ws=%d block %d: %d %s requests, want %d", ws, b, got[k], k, want[k])
				}
			}
		}
	}
}

func TestHitsOnlyOnSetupKeys(t *testing.T) {
	keys := setupKeys(setupReps - 1)
	isKey := map[libOp]bool{}
	for _, k := range keys {
		isKey[k] = true
	}
	for ws := uint64(0); ws < 5; ws++ {
		for i := 0; i < 1000; i++ {
			req := serveRequest(ws, i, len(keys))
			switch req.Kind {
			case kindHit, kindAnalyze:
				b := synthBody(req, keys)
				if !isKey[libOp{App: b.App, Ranks: b.Ranks, Seed: b.Seed}] {
					t.Fatalf("ws=%d request %d (%s) asks for %s@%d seed %d, not a set-up key",
						ws, i, req.Kind, b.App, b.Ranks, b.Seed)
				}
				if b.Analyze != (req.Kind == kindAnalyze) {
					t.Fatalf("request %d: analyze=%t for a %s", i, b.Analyze, req.Kind)
				}
			case kindMiss:
				b := synthBody(req, keys)
				if isKey[libOp{App: b.App, Ranks: b.Ranks, Seed: b.Seed}] {
					t.Fatalf("request %d: a miss names a set-up key", i)
				}
				if b.Ranks < 8 || b.Ranks > 32 {
					t.Fatalf("request %d: miss at %d ranks, want 8..32", i, b.Ranks)
				}
			case kindUpload:
				if req.Key < 0 || req.Key >= len(uploadTraces) {
					t.Fatalf("request %d: upload of trace %d", i, req.Key)
				}
			}
		}
	}
	// Every set-up repetition warms a distinct key set.
	seen := map[libOp]bool{}
	for rep := 0; rep < setupReps; rep++ {
		for _, k := range setupKeys(rep) {
			if seen[k] {
				t.Fatalf("set-up key %v repeats across repetitions", k)
			}
			seen[k] = true
		}
	}
}

func TestDeckPassesCoverTheDeck(t *testing.T) {
	n := len(apps.All()) * sweepDeckCycles
	for ws := uint64(0); ws < 3; ws++ {
		for pass := 0; pass < 2; pass++ {
			seen := map[libOp]bool{}
			for i := pass * n; i < (pass+1)*n; i++ {
				seen[sweepOp(ws, i)] = true
			}
			if len(seen) != n {
				t.Errorf("ws=%d sweep pass %d visits %d distinct ops, want %d", ws, pass, len(seen), n)
			}
			seen = map[libOp]bool{}
			for i := pass * cgDeck; i < (pass+1)*cgDeck; i++ {
				seen[cgOp(ws, i)] = true
			}
			if len(seen) != cgDeck {
				t.Errorf("ws=%d cg pass %d visits %d distinct ops, want %d", ws, pass, len(seen), cgDeck)
			}
		}
	}
	// Every workload seed walks the same deck.
	deck := func(ws uint64) map[libOp]bool {
		m := map[libOp]bool{}
		for i := 0; i < n; i++ {
			m[sweepOp(ws, i)] = true
		}
		return m
	}
	a, b := deck(1), deck(2)
	for op := range a {
		if !b[op] {
			t.Fatalf("%v is in seed 1's deck but not seed 2's", op)
		}
	}
}

func TestServeDecks(t *testing.T) {
	keys := len(setupKeys(0))
	const n = 6000
	for ws := uint64(0); ws < 3; ws++ {
		next := map[reqKind]int{}
		misses := map[request]bool{}
		uploads := map[request]bool{}
		keyDraws := map[reqKind][]int{}
		for i := 0; i < n; i++ {
			kind, k := kindOrdinal(ws, i)
			if k != next[kind] {
				t.Fatalf("ws=%d request %d: %s ordinal %d, want %d", ws, i, kind, k, next[kind])
			}
			next[kind]++
			req := serveRequest(ws, i, keys)
			switch kind {
			case kindMiss:
				if misses[req] {
					t.Fatalf("ws=%d request %d repeats miss %+v", ws, i, req)
				}
				misses[req] = true
			case kindUpload:
				if uploads[req] {
					t.Fatalf("ws=%d request %d repeats upload %+v", ws, i, req)
				}
				uploads[req] = true
			default:
				keyDraws[kind] = append(keyDraws[kind], req.Key)
			}
		}
		// Every run of len(keys) consecutive hits (or analyze repeats)
		// visits each set-up key once.
		for kind, draws := range keyDraws {
			for start := 0; start+keys <= len(draws); start += keys {
				seen := map[int]bool{}
				for _, k := range draws[start : start+keys] {
					seen[k] = true
				}
				if len(seen) != keys {
					t.Fatalf("ws=%d %s draws %d..%d cover %d keys", ws, kind, start, start+keys, len(seen))
				}
			}
		}
	}
}

// A miss or upload stream's first k draws name the same entries on every
// workload seed, except inside the last, partial block: a longer window
// (a faster program) walks further along the same work, never onto work
// that depends on the seed.
func TestBlockStreamsAreSeedIndependent(t *testing.T) {
	entries := func(ws uint64, k int) map[int]bool {
		m := map[int]bool{}
		for i := 0; i < k; i++ {
			m[blockEntry(ws, "serve-mix/miss", i)] = true
		}
		return m
	}
	for _, k := range []int{1, 15, 16, 17, 250, 1000, 1500, 4099} {
		a, b := entries(3, k), entries(4, k)
		if len(a) != k {
			t.Fatalf("k=%d: %d distinct entries, want %d", k, len(a), k)
		}
		differ := 0
		for e := range a {
			if !b[e] {
				differ++
			}
		}
		if differ > k%streamBlock {
			t.Errorf("k=%d: %d entries differ between seeds, want at most %d", k, differ, k%streamBlock)
		}
		for e := range a {
			if e >= (k/streamBlock+1)*streamBlock {
				t.Fatalf("k=%d: entry %d lies past the draw's block", k, e)
			}
		}
	}
	order := 0
	for i := 0; i < 64; i++ {
		if blockEntry(3, "serve-mix/miss", i) != blockEntry(4, "serve-mix/miss", i) {
			order++
		}
	}
	if order < 32 {
		t.Errorf("only %d of 64 draws change order with the workload seed", order)
	}
}

func TestWorseBy(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		better string
		want   float64
	}{{100, 110, "lower", 0.1}, {100, 90, "lower", -0.1}, {100, 90, "higher", 0.1}, {100, 110, "higher", -0.1}, {0, 0, "lower", 0}} {
		if got := worseBy(c.a, c.b, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worseBy(%g, %g, %s) = %g, want %g", c.a, c.b, c.better, got, c.want)
		}
	}
}
