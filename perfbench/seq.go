package main

import (
	"fmt"
	"hash/fnv"

	"siesta/internal/apps"
)

// Every input a workload feeds the program is derived here from the
// workload seed (the --seed argument), so the same seed replays the same
// ops in the same order.

const golden = 0x9e3779b97f4a7c15

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func streamID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// opSeed is the seed of op i of a named stream under workload seed ws. It
// fits in 48 bits so it survives any JSON reader unchanged.
func opSeed(ws uint64, stream string, i int) uint64 {
	return mix(mix(ws^streamID(stream))+uint64(i)) >> 16
}

// rng is a small deterministic generator for drawing op parameters.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += golden
	return mix(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// libOp is one core.Synthesize call of a library workload.
type libOp struct {
	App   string
	Ranks int
	Seed  uint64
}

func (o libOp) String() string { return fmt.Sprintf("%s@%d/seed=%d", o.App, o.Ranks, o.Seed) }

// Library ops draw their inputs from fixed decks. A synthesis seed sets
// how much work an op is (how many clusters, so how many QP solves; one
// sweep cycle costs 124-482 ms depending on its seeds), so the k-th draw
// of a stream walks its deck in passes, each pass a permutation of the
// whole deck drawn from the workload seed: every run does nearly the same
// work, in an order the workload seed sets.
const (
	deckSeed = 0xdec
	// sweepDeckCycles is the sweep-16 deck size in app cycles; a timed
	// window walks it several times.
	sweepDeckCycles = 32
	// cgDeck is the cg-256 deck size in ops.
	cgDeck = 16
	// streamBlock is the block size of serve-mix's miss and upload
	// streams (see blockEntry).
	streamBlock = 16
)

// permutation is a seeded permutation of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	shuffle(newRNG(seed), p)
	return p
}

// deckEntry maps the k-th draw of a stream onto a deck of n entries.
func deckEntry(ws uint64, stream string, k, n int) int {
	return permutation(opSeed(ws, stream+"/pass", k/n), n)[k%n]
}

// blockEntry maps the k-th draw of a stream that must never repeat (a
// repeated serve-mix miss or upload would hit the cache) onto an unbounded
// sequence of entries, walked in fixed blocks of streamBlock entries. The
// workload seed orders the entries inside each block only. So the first k
// draws of any two workload seeds name the same entries except in the
// last, partial block, however large k is: a program that gets faster
// walks further along the same sequence, never onto seed-dependent work.
func blockEntry(ws uint64, stream string, k int) int {
	b := k / streamBlock
	return b*streamBlock + permutation(opSeed(ws, stream+"/block", b), streamBlock)[k%streamBlock]
}

// sweepRanks is sweep-16's rank count: 16, or 8 for an app that cannot run
// at 16 (LULESH needs a cube).
func sweepRanks(sp *apps.Spec) int {
	if sp.ValidRanks(16) {
		return 16
	}
	return 8
}

// sweepOp is op i of sweep-16 under workload seed ws. Every consecutive
// block of len(apps.All()) ops is one deck cycle: each built-in app once,
// in a seeded order, each with its own seed.
func sweepOp(ws uint64, i int) libOp {
	all := apps.All()
	n := len(all)
	cycle := deckEntry(ws, "sweep-16", i/n, sweepDeckCycles)
	app := permutation(opSeed(ws, "sweep-16/cycle", i/n), n)[i%n]
	sp := all[app]
	return libOp{App: sp.Name, Ranks: sweepRanks(sp), Seed: opSeed(deckSeed, "sweep-16", cycle*n+app)}
}

// cgOp is op i of cg-256 under workload seed ws.
func cgOp(ws uint64, i int) libOp {
	j := deckEntry(ws, "cg-256", i, cgDeck)
	return libOp{App: "CG", Ranks: 256, Seed: opSeed(deckSeed, "cg-256", j)}
}

// --- serve-mix ---------------------------------------------------------------

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindAnalyze
	kindUpload
	numKinds
)

func (k reqKind) String() string {
	return [...]string{"hit", "miss", "analyze", "upload"}[k]
}

// blockKinds fixes serve-mix's class shares: every consecutive block of
// len(blockKinds) requests holds exactly these classes, in a seeded order.
// Misses, analyze repeats and uploads come in the inverse ratio of their
// measured client time (about 44, 22 and 43 ms), so each carries a third
// of the synthesizing time; hits are half the requests (README.md, "How
// the mix was set").
var blockKinds = []reqKind{
	kindHit, kindHit, kindHit, kindHit,
	kindMiss,
	kindAnalyze, kindAnalyze,
	kindUpload,
}

// setupKeys is the warm set of serve-mix set-up repetition rep: the
// requests completed before timing starts, and the only ones hits and
// analyze repeats name. The keys do not depend on the workload seed:
// set-up is the same work on every run, so setup_s measures the code, not
// the draw. Each repetition gets its own seeds so none of them starts from
// QP solves a previous one cached.
func setupKeys(rep int) []libOp {
	base := []libOp{
		{App: "CG", Ranks: 8}, {App: "MG", Ranks: 8}, {App: "Sod", Ranks: 16},
		{App: "IS", Ranks: 16}, {App: "LULESH", Ranks: 8}, {App: "Sweep3d", Ranks: 16},
	}
	for k := range base {
		base[k].Seed = uint64(1000 + 100*rep + k)
	}
	return base
}

// uploadTraces are the 64-rank apps whose traces the set-up records for
// uploads.
var uploadTraces = []libOp{
	{App: "CG", Ranks: 64, Seed: 7001},
	{App: "Sod", Ranks: 64, Seed: 7002},
}

// missShapes are the (app, ranks) pairs a serve-mix miss draws from: every
// built-in app at every rank count in 8..32 it supports.
var missShapes = func() []libOp {
	var out []libOp
	for _, sp := range apps.All() {
		for _, r := range []int{8, 16, 32} {
			if sp.ValidRanks(r) {
				out = append(out, libOp{App: sp.Name, Ranks: r})
			}
		}
	}
	return out
}()

// spillHighWater is the per-rank resident budget of the uploads that
// spill: low enough that every 64-rank trace here spills.
const spillHighWater = 256

// request is one serve-mix request.
type request struct {
	Kind reqKind
	// Key indexes setupKeys for hits and analyze repeats, uploadTraces for
	// uploads.
	Key   int
	App   string
	Ranks int
	Seed  uint64
	// SpillHighWater is set on uploads that spill.
	SpillHighWater int
}

// kindOrdinal is request i's class and how many requests of that class
// precede it; the fixed block shares make it a pure function of i.
func kindOrdinal(ws uint64, i int) (reqKind, int) {
	nb := len(blockKinds)
	kinds := append([]reqKind(nil), blockKinds...)
	shuffle(newRNG(opSeed(ws, "serve-mix/block", i/nb)), kinds)
	kind := kinds[i%nb]
	per, before := 0, 0
	for p, k := range kinds {
		if k == kind {
			per++
			if p < i%nb {
				before++
			}
		}
	}
	return kind, (i/nb)*per + before
}

// serveRequest is request i of serve-mix under workload seed ws, against
// nKeys set-up keys. Hits and analyze repeats cycle through the set-up
// keys; misses and uploads walk their block sequences.
func serveRequest(ws uint64, i int, nKeys int) request {
	kind, k := kindOrdinal(ws, i)
	req := request{Kind: kind}
	switch kind {
	case kindHit, kindAnalyze:
		req.Key = deckEntry(ws, "serve-mix/"+kind.String(), k, nKeys)
	case kindMiss:
		j := blockEntry(ws, "serve-mix/miss", k)
		s := missShapes[j%len(missShapes)]
		req.App, req.Ranks = s.App, s.Ranks
		req.Seed = opSeed(deckSeed, "serve-mix/miss", j)
	case kindUpload:
		j := blockEntry(ws, "serve-mix/upload", k)
		req.Key = j % len(uploadTraces)
		if j/len(uploadTraces)%2 == 0 {
			req.SpillHighWater = spillHighWater
		}
		req.Seed = opSeed(deckSeed, "serve-mix/upload", j)
	}
	return req
}
