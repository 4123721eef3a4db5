// Computation-proxy search memoization (§2.4 at scale): loop-heavy traces
// resolve the same cluster target vector thousands of times, and concurrent
// server jobs on the same platform resolve identical vectors across jobs.
// The QP solve is by far the dominant cost per cluster, so CachedSearch
// interns solutions behind a concurrency-safe LRU keyed by (B matrix,
// quantized target).
//
// Purity is what makes the cache safe to share: the target is quantized to
// 9 significant digits and the QP is solved *on the quantized target*, so a
// cached combination is a pure function of its key — every caller that maps
// to the key gets the byte-identical combination a cold solve would have
// produced, regardless of arrival order or concurrency. Quantizing to 9
// digits moves each target component by ≤ 5e-10 relative, far below both
// the counter model's noise floor and the integer rounding of the result.
package blocks

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"siesta/internal/perfmodel"
	"siesta/internal/qp"
)

// Memo is a bounded, concurrency-safe cache of Search results. The zero
// value is not usable; construct with NewMemo.
type Memo struct {
	mu     sync.Mutex
	cap    int
	lru    *list.List // front = most recent; values are *memoEntry
	byKey  map[memoKey]*list.Element
	hits   int64
	misses int64
}

type memoKey struct {
	bm     [32]byte // sha256 over the B matrix dims and data
	target [perfmodel.NumMetrics]uint64
}

type memoEntry struct {
	key   memoKey
	combo Combination
	err   error
}

// DefaultMemoCap is the size of the process-global memo. An entry is ~200
// bytes, so the default retains every distinct cluster of several hundred
// concurrent syntheses for well under a megabyte.
const DefaultMemoCap = 4096

// DefaultMemo is the process-global search memo used when callers do not
// supply their own. Platform identity is captured through the B-matrix hash
// in the key, so one memo safely serves jobs on different platforms.
var DefaultMemo = NewMemo(DefaultMemoCap)

// NewMemo returns a memo retaining up to cap solved searches (cap ≤ 0
// selects DefaultMemoCap).
func NewMemo(cap int) *Memo {
	if cap <= 0 {
		cap = DefaultMemoCap
	}
	return &Memo{cap: cap, lru: list.New(), byKey: map[memoKey]*list.Element{}}
}

// Stats reports cache hits and misses so far.
func (m *Memo) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// Len reports the number of cached entries.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// hashB fingerprints the B matrix (dims + exact float bits); two platforms
// or two noise draws produce different hashes and therefore disjoint cache
// entries.
func hashB(bm *qp.Matrix) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(bm.Rows)<<32|uint64(uint32(bm.Cols)))
	h.Write(buf[:])
	for _, v := range bm.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// quantize rounds v to 9 significant decimal digits. Quantization happens
// before the solve, not just in the key, so the cached result is exact for
// the key (see the package comment).
func quantize(v float64) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	digits := 9 - math.Ceil(math.Log10(math.Abs(v)))
	if digits > 300 || digits < -300 {
		// The scale factor would over/underflow; magnitudes this extreme
		// never arise from real counters, so key on the raw bits.
		return v
	}
	scale := math.Pow(10, digits)
	q := math.Round(v*scale) / scale
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return v
	}
	return q
}

// searchKey is the memo key for target against the B matrix hashed as bh,
// plus the quantized target the search solves on.
func searchKey(bh [32]byte, target perfmodel.Counters) (memoKey, perfmodel.Counters) {
	var qt perfmodel.Counters
	key := memoKey{bm: bh}
	for i, v := range target {
		qt[i] = quantize(v)
		key.target[i] = math.Float64bits(qt[i])
	}
	return key, qt
}

// CachedSearch is Search behind the memo: the target is quantized, looked
// up, and solved on a miss. A nil memo uses DefaultMemo. Errors are cached
// too — a target the QP cannot fit will not fit on retry either.
func CachedSearch(m *Memo, bm *qp.Matrix, target perfmodel.Counters) (Combination, error) {
	if m == nil {
		m = DefaultMemo
	}
	key, qt := searchKey(hashB(bm), target)

	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		m.hits++
		m.lru.MoveToFront(el)
		e := el.Value.(*memoEntry)
		m.mu.Unlock()
		return e.combo, e.err
	}
	m.misses++
	m.mu.Unlock()

	// Solve outside the lock: concurrent misses on the same key may solve
	// twice, but purity guarantees they compute the same entry, so whichever
	// insert lands second is a harmless overwrite.
	combo, err := Search(bm, qt)

	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		m.lru.MoveToFront(el)
	} else {
		m.byKey[key] = m.lru.PushFront(&memoEntry{key: key, combo: combo, err: err})
		for m.lru.Len() > m.cap {
			oldest := m.lru.Back()
			m.lru.Remove(oldest)
			delete(m.byKey, oldest.Value.(*memoEntry).key)
		}
	}
	m.mu.Unlock()
	return combo, err
}
