// Memo snapshot codec: the post-search checkpoint persists solved QP
// searches so a synthesis resumed after a crash re-runs code generation
// with every cluster's solve answered from cache. Entries are pure
// functions of their keys (see the package comment), so importing a
// snapshot can never change a result — only skip recomputing it — which is
// what keeps checkpoint/restart byte-identical.
package blocks

import (
	"fmt"

	"siesta/internal/perfmodel"
	"siesta/internal/qp"
	"siesta/internal/trace"
)

// memoSnapshotMagic versions the snapshot encoding; a checkpoint written
// by an incompatible build fails to import and the caller recomputes.
const memoSnapshotMagic = "SIESTA-MEMO1"

// ExportFor snapshots the solved entries for the given targets against bm
// — one synthesis's searches — in the shared compact binary format, in
// order of first appearance. A process-global memo shared by many
// syntheses thus yields a snapshot sized by this synthesis, not by the
// memo's history. Targets whose entry is absent (never solved, evicted, or
// errored — re-deriving an error is cheap and keeps snapshots free of
// stale failure modes) are left out; importing the snapshot then simply
// re-solves them.
func (m *Memo) ExportFor(bm *qp.Matrix, targets []perfmodel.Counters) []byte {
	bh := hashB(bm)
	m.mu.Lock()
	defer m.mu.Unlock()
	entries := make([]*memoEntry, 0, len(targets))
	seen := make(map[memoKey]bool, len(targets))
	for _, t := range targets {
		key, _ := searchKey(bh, t)
		el, ok := m.byKey[key]
		if !ok || seen[key] {
			continue
		}
		seen[key] = true
		if e := el.Value.(*memoEntry); e.err == nil {
			entries = append(entries, e)
		}
	}
	var e trace.Enc
	e.Str(memoSnapshotMagic)
	e.Int(len(entries))
	for _, ent := range entries {
		e.Str(string(ent.key.bm[:]))
		for _, t := range ent.key.target {
			e.Uvarint(t)
		}
		for _, c := range ent.combo.Counts {
			e.Varint(c)
		}
	}
	return e.Bytes()
}

// Import merges a snapshot produced by ExportFor into the memo, skipping keys
// already present, and reports how many entries were added. A malformed
// snapshot returns an error with nothing guaranteed about partial
// insertion — safe either way, since entries are pure.
func (m *Memo) Import(data []byte) (int, error) {
	d := trace.NewDec(data)
	magic, err := d.Str()
	if err != nil || magic != memoSnapshotMagic {
		return 0, fmt.Errorf("blocks: bad memo snapshot magic %q: %v", magic, err)
	}
	n, err := d.Int()
	if err != nil {
		return 0, err
	}
	if n < 0 || n > d.Remaining() {
		return 0, fmt.Errorf("blocks: memo snapshot count %d exceeds remaining input %d", n, d.Remaining())
	}
	added := 0
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		var key memoKey
		bm, err := d.Str()
		if err != nil {
			return added, fmt.Errorf("blocks: memo snapshot entry %d: %w", i, err)
		}
		if len(bm) != len(key.bm) {
			return added, fmt.Errorf("blocks: memo snapshot entry %d: B-hash is %d bytes", i, len(bm))
		}
		copy(key.bm[:], bm)
		for j := range key.target {
			if key.target[j], err = d.Uvarint(); err != nil {
				return added, fmt.Errorf("blocks: memo snapshot entry %d: %w", i, err)
			}
		}
		var combo Combination
		for j := range combo.Counts {
			if combo.Counts[j], err = d.Varint(); err != nil {
				return added, fmt.Errorf("blocks: memo snapshot entry %d: %w", i, err)
			}
		}
		if _, ok := m.byKey[key]; ok {
			continue
		}
		m.byKey[key] = m.lru.PushFront(&memoEntry{key: key, combo: combo})
		for m.lru.Len() > m.cap {
			oldest := m.lru.Back()
			m.lru.Remove(oldest)
			delete(m.byKey, oldest.Value.(*memoEntry).key)
		}
		added++
	}
	return added, nil
}
