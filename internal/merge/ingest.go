package merge

import (
	"fmt"
	"sync"
	"sync/atomic"

	"siesta/internal/sequitur"
	"siesta/internal/trace"
)

// Streaming ingest (DESIGN.md §15): Build without a decoded trace.Trace.
// Each rank's events arrive as self-delimiting chunk frames
// (trace.ChunkEncodeRank's format) and are consumed as they land —
// terminals intern into a spillable table, clusters into the same
// match-or-append index the batch leaves use, and Sequitur inference runs
// incrementally over the arriving sequence. Commit (Build) then runs the
// ordinary pairwise tree reduction over the per-rank tables and reuses
// assemble for everything after, so the streamed output is byte-identical
// to Build on the equivalent trace for every chunk size and every
// rank-arrival interleaving.
//
// The one subtlety is which ids inference runs over. Batch Build infers
// over fully-globalized ids, which do not exist until every rank has
// arrived. The ingestor instead feeds each rank's builder its
// *leaf-canonical* ids — the ids of the rank's own leaf partial, exactly
// what leafPartial produces — and defers globalization to commit. Sequitur
// is invariant under injective relabeling of terminals (its decisions
// depend only on the equality pattern of the token stream), so when the
// rank's leaf→root id map is injective the leaf grammar relabels in place
// to the batch grammar. The map can fail to be injective only when the
// inner tree merges collapse two of the rank's distinct computation
// clusters into one (coarser threshold, cross-rank representatives); that
// rank's sequence is then re-inferred over root ids — the exact batch
// computation — from its leaf grammar's expansion. Either way: identical
// grammars, identical bytes.

// Ingest is one streaming merge session: numRanks rank streams feeding
// one eventual Program. Create with NewIngest, feed each rank through
// Rank(r).Feed, then call Build once every stream has ended. Close (or
// Build, which closes internally) releases the spill files; sessions that
// never commit must call Close so no temp files leak.
type Ingest struct {
	opts     Options
	platform string
	impl     string
	ranks    []*RankIngestor

	// sealed flips when Build or Close begins: feeds arriving after that
	// are rejected rather than racing the reduction.
	sealed atomic.Bool

	mu     sync.Mutex
	built  bool
	closed bool
	// prog and err are Build's result, returned again by repeat calls.
	prog *Program
	err  error

	// reinferred counts ranks whose grammars went through the expand +
	// re-infer fallback at Build (leaf→root map not injective). Exposed for
	// tests and diagnostics; byte-equality holds either way.
	reinferred atomic.Int32
}

// Reinferred reports how many ranks took the re-inference fallback during
// Build (0 until Build runs).
func (in *Ingest) Reinferred() int { return int(in.reinferred.Load()) }

// NewIngest opens a streaming merge session for numRanks rank streams.
// platformName and implName are stamped on the resulting Program (they
// are what trace.Trace carries for the batch path).
func NewIngest(numRanks int, platformName, implName string, opts Options) (*Ingest, error) {
	if numRanks <= 0 {
		return nil, fmt.Errorf("merge: ingest needs a positive rank count, got %d", numRanks)
	}
	opts = opts.withDefaults()
	in := &Ingest{
		opts:     opts,
		platform: platformName,
		impl:     implName,
		ranks:    make([]*RankIngestor, numRanks),
	}
	for r := range in.ranks {
		in.ranks[r] = &RankIngestor{
			in:    in,
			rank:  r,
			th:    opts.ClusterThreshold,
			dec:   trace.NewChunkDec(),
			cl:    newPartial(opts.ClusterThreshold),
			table: trace.NewSpillTable(opts.Spill),
			b:     sequitur.NewWithOptions(!opts.DisableRunLength),
		}
	}
	return in, nil
}

// NumRanks reports the session's rank count.
func (in *Ingest) NumRanks() int { return len(in.ranks) }

// Rank returns rank r's ingestor. r must be in [0, NumRanks).
func (in *Ingest) Rank(r int) *RankIngestor { return in.ranks[r] }

// SpillStats aggregates the per-rank terminal tables' footprint split.
func (in *Ingest) SpillStats() trace.SpillStats {
	var agg trace.SpillStats
	for _, ri := range in.ranks {
		ri.mu.Lock()
		st := ri.table.Stats()
		ri.mu.Unlock()
		agg.Records += st.Records
		agg.Spilled += st.Spilled
		agg.ResidentBytes += st.ResidentBytes
		agg.SpilledBytes += st.SpilledBytes
	}
	return agg
}

// seal rejects further feeds and waits out any in flight: after seal
// returns, every RankIngestor is quiescent and safe to read lock-free.
func (in *Ingest) seal() {
	in.sealed.Store(true)
	for _, ri := range in.ranks {
		ri.mu.Lock()
		//lint:ignore SA2001 the empty critical section is the barrier:
		// a Feed that entered before sealing holds ri.mu until done.
		ri.mu.Unlock()
	}
}

// Close releases the session's spill files without building. Idempotent,
// and safe after Build (which closes internally). Abandoned sessions —
// client gone, commit never issued — must be closed or their temp files
// outlive them.
func (in *Ingest) Close() error {
	in.seal()
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.closeLocked()
}

// closeLocked releases the spill files once. Caller holds in.mu.
func (in *Ingest) closeLocked() error {
	if in.closed {
		return nil
	}
	in.closed = true
	var first error
	for _, ri := range in.ranks {
		if err := ri.table.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Build commits the session: every rank stream must have ended. It runs
// the pairwise tree reduction over the per-rank leaf tables, relabels (or
// where the reduction collapsed a rank's terminals, re-infers) each
// rank's grammar onto global ids, and assembles the Program through the
// same back half batch Build uses. The session's spill files are released
// before Build returns, success or not. The reduction runs at most once:
// repeat calls return the first call's program and error, so a caller
// retrying a later pipeline step never rebuilds a consumed session. Build
// on a session closed without building fails.
func (in *Ingest) Build() (*Program, error) {
	in.seal()
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.built {
		return in.prog, in.err
	}
	if in.closed {
		return nil, fmt.Errorf("merge: ingest session already closed")
	}
	in.built = true
	in.prog, in.err = in.build()
	in.closeLocked()
	return in.prog, in.err
}

// build is Build's reduction; it runs once, under in.mu.
func (in *Ingest) build() (*Program, error) {
	opts := in.opts
	par := opts.Parallelism
	for _, ri := range in.ranks {
		if !ri.dec.Ended() {
			return nil, fmt.Errorf("merge: rank %d stream incomplete (no end frame; %d bytes buffered)",
				ri.rank, ri.dec.Buffered())
		}
		if err := ri.err; err != nil {
			return nil, err
		}
	}

	// Leaf partials: the per-rank tables built during ingest, with
	// identity recMaps over leaf ids. Materialize re-reads any spilled
	// suffix; the reduction then proceeds exactly as in GlobalizeParallel.
	parts := make([]*partial, len(in.ranks))
	leafErrs := make([]error, len(in.ranks))
	parfor(len(in.ranks), par, func(r int) {
		parts[r], leafErrs[r] = in.ranks[r].leaf()
	})
	for _, err := range leafErrs {
		if err != nil {
			return nil, err
		}
	}
	root := reducePartials(parts, opts.ClusterThreshold, par)

	// Per-rank globalization of the incrementally-inferred grammars:
	// relabel when leaf→root is injective for the rank, re-infer over the
	// mapped sequence when it is not (see the file comment).
	grammars := make([]*sequitur.Grammar, len(in.ranks))
	gramErrs := make([]error, len(in.ranks))
	parfor(len(in.ranks), par, func(r int) {
		ri := in.ranks[r]
		rm := root.recMaps[r].S // leaf id -> root id
		g := ri.b.Grammar()
		if injective(rm, len(root.records)) {
			for _, rule := range g.Rules {
				for i := range rule {
					if !rule[i].IsRule {
						rule[i].Ref = rm[rule[i].Ref]
					}
				}
			}
		} else {
			in.reinferred.Add(1)
			seq := g.Expand()
			for i, leaf := range seq {
				seq[i] = rm[leaf]
			}
			b := sequitur.NewWithOptions(!opts.DisableRunLength)
			b.AppendAll(seq)
			g = b.Grammar()
		}
		if n := g.ExpandedLen(); n != ri.events {
			gramErrs[r] = fmt.Errorf("merge: rank %d grammar expands to %d events, ingested %d", r, n, ri.events)
			return
		}
		grammars[r] = g
	})
	for rank, rm := range root.recMaps {
		rm.Unref()
		delete(root.recMaps, rank)
	}
	for _, err := range gramErrs {
		if err != nil {
			return nil, err
		}
	}

	// The reference sequence for the losslessness self-check is the
	// pre-merge grammar's own expansion over root ids (the streamed path
	// has no retained event sequences to compare against — bounding that
	// memory is the point). The ExpandedLen gate above pins each grammar
	// to its ingested event count, so the check still catches any
	// divergence introduced from the depth merge onward.
	return assemble(len(in.ranks), in.platform, in.impl,
		root.records, root.clusters, grammars,
		func(rank int) []int { return grammars[rank].Expand() }, opts)
}

// injective reports whether m (a leaf→root id map) hits no root id twice.
// n is the root table size.
func injective(m []int, n int) bool {
	if len(m) <= 1 {
		return true
	}
	seen := make([]bool, n)
	for _, id := range m {
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// RankIngestor consumes one rank's chunk stream: decode, intern, infer —
// all inline with Feed, so inference genuinely runs during ingest. Safe
// for use by one uploader at a time; concurrent Feeds for the same rank
// serialize on the ingestor's lock (arrival order is the byte order).
type RankIngestor struct {
	mu   sync.Mutex
	in   *Ingest
	rank int
	th   float64
	err  error

	dec *trace.ChunkDec
	// cl holds the rank's leaf cluster table: only the cluster half of a
	// partial (clusters + cindex) is used during ingest; records live in
	// the spill table.
	cl    *partial
	table *trace.SpillTable
	b     *sequitur.Builder

	// wireCl / wireRec map the stream's dense wire ids onto leaf ids.
	wireCl  []int
	wireRec []int

	events int
	bytes  int64
}

// Feed consumes the next chunk of the rank's stream. Chunks may be split
// at arbitrary byte boundaries; incomplete frames are buffered until the
// next Feed. Errors are sticky — a malformed stream poisons the rank and
// every later Feed reports the same failure.
func (ri *RankIngestor) Feed(chunk []byte) error {
	if ri.in.sealed.Load() {
		return fmt.Errorf("merge: rank %d fed after session was sealed", ri.rank)
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	if ri.err != nil {
		return ri.err
	}
	err := ri.dec.Feed(chunk, ri.consume)
	if err == nil {
		err = ri.table.Err() // surface spill I/O promptly, not at commit
	}
	if err != nil {
		ri.err = err
		return err
	}
	ri.bytes += int64(len(chunk))
	return nil
}

// consume interns one decoded stream item. It is the incremental replica
// of leafPartial: clusters through the match-or-append index, records
// re-keyed after cluster remap and interned first-wins, events mapped to
// leaf ids and appended to the Sequitur builder.
func (ri *RankIngestor) consume(it trace.ChunkItem) error {
	switch it.Tag {
	case trace.ChunkTagHeader:
		if it.Rank != ri.rank {
			return fmt.Errorf("merge: stream header says rank %d, session slot is rank %d", it.Rank, ri.rank)
		}
	case trace.ChunkTagCluster:
		ri.wireCl = append(ri.wireCl, ri.cl.addCluster(it.Cluster, ri.th))
	case trace.ChunkTagRecord:
		r := it.Record
		if r.IsCompute() {
			r.ComputeCluster = ri.wireCl[r.ComputeCluster]
		}
		ri.wireRec = append(ri.wireRec, ri.table.Intern(r, r.KeyString()))
	case trace.ChunkTagEvents:
		for _, wire := range it.Events {
			ri.b.Append(ri.wireRec[wire])
		}
		ri.events += len(it.Events)
	case trace.ChunkTagEnd:
		// Totals were validated by the decoder; nothing to intern.
	}
	return nil
}

// Ended reports whether the rank's stream is complete (end frame seen).
func (ri *RankIngestor) Ended() bool {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.dec.Ended()
}

// Events reports how many event instances have been ingested so far.
func (ri *RankIngestor) Events() int {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.events
}

// Bytes reports how many stream bytes have been accepted so far.
func (ri *RankIngestor) Bytes() int64 {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.bytes
}

// Grammar snapshots the rank's in-progress grammar over leaf-canonical
// ids — a progress/debug surface; commit-time globalization happens in
// Build.
func (ri *RankIngestor) Grammar() *sequitur.Grammar {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.b.Snapshot()
}

// leaf assembles the rank's leaf partial for the reduction: the tables
// built during ingest plus an identity recMap over leaf ids, so the
// composed root map comes out as leaf→root. Called only after seal.
func (ri *RankIngestor) leaf() (*partial, error) {
	records, err := ri.table.Materialize()
	if err != nil {
		return nil, err
	}
	p := &partial{
		clusters: ri.cl.clusters,
		cindex:   ri.cl.cindex,
		records:  records,
		keys:     ri.table.Keys(),
		recIndex: ri.table.KeyIndex(),
		recMaps:  map[int]*trace.IntBuf{},
	}
	rm := trace.GetInts(len(records))
	for i := range rm.S {
		rm.S[i] = i
	}
	p.recMaps[ri.rank] = rm
	return p, nil
}
