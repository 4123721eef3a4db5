package blocks

import (
	"bytes"
	"testing"

	"siesta/internal/perfmodel"
	"siesta/internal/platform"
)

// fillMemo solves a handful of distinct targets so the memo has real
// entries to snapshot.
func fillMemo(t *testing.T, m *Memo) []perfmodel.Counters {
	t.Helper()
	p := platform.A
	bm := MeasureB(p, nil)
	targets := []perfmodel.Counters{
		{2e9, 1.1e9, 3.3e8, 1.2e7, 9.9e6, 5.5e5},
		{4e9, 2.2e9, 6.6e8, 2.4e7, 1.98e7, 1.1e6},
		{1e8, 5e7, 1.5e7, 6e5, 4e5, 2e4},
	}
	for _, tg := range targets {
		if _, err := CachedSearch(m, bm, tg); err != nil {
			t.Fatalf("CachedSearch(%v): %v", tg, err)
		}
	}
	return targets
}

// exportAll snapshots every entry fillMemo solved.
func exportAll(m *Memo, targets []perfmodel.Counters) []byte {
	return m.ExportFor(MeasureB(platform.A, nil), targets)
}

func TestMemoExportImportRoundTrip(t *testing.T) {
	src := NewMemo(16)
	targets := fillMemo(t, src)
	snap := exportAll(src, targets)

	dst := NewMemo(16)
	added, err := dst.Import(snap)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(targets) {
		t.Fatalf("imported %d entries, want %d", added, len(targets))
	}
	if dst.Len() != src.Len() {
		t.Fatalf("dst has %d entries, src %d", dst.Len(), src.Len())
	}

	// Every lookup in the warmed memo must hit and return the combination
	// the source solved — purity makes this the byte-identical guarantee
	// the checkpoint layer relies on.
	p := platform.A
	bm := MeasureB(p, nil)
	for _, tg := range targets {
		want, err := CachedSearch(src, bm, tg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CachedSearch(dst, bm, tg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("imported combination %v != source %v", got, want)
		}
	}
	if hits, _ := dst.Stats(); hits != int64(len(targets)) {
		t.Fatalf("warmed memo took %d hits, want %d", hits, len(targets))
	}

	// Importing the same snapshot again adds nothing.
	if added, err = dst.Import(snap); err != nil || added != 0 {
		t.Fatalf("re-import: added=%d err=%v, want 0, nil", added, err)
	}

	// Export is deterministic for the same contents.
	if !bytes.Equal(exportAll(src, targets), exportAll(src, targets)) {
		t.Fatal("ExportFor is not deterministic")
	}
}

func TestMemoImportRejectsCorruption(t *testing.T) {
	src := NewMemo(16)
	snap := exportAll(src, fillMemo(t, src))

	if _, err := NewMemo(16).Import([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage imported")
	}
	for cut := 0; cut < len(snap); cut += 11 {
		if cut >= len(snap) {
			break
		}
		if added, err := NewMemo(16).Import(snap[:cut]); err == nil && added > 0 {
			// A truncation landing exactly on an entry boundary may import
			// the surviving prefix with an error for the rest; importing
			// entries *and* reporting success would be a bug.
			t.Fatalf("truncated snapshot at %d imported %d entries without error", cut, added)
		}
	}

	// An oversized declared count must be rejected before allocation.
	bad := append([]byte(nil), snap...)
	// The count follows the 12-byte magic string (1-byte length prefix +
	// "SIESTA-MEMO1"); stomp it with a huge varint.
	var e = bad[:1+len(memoSnapshotMagic)]
	e = append(e, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := NewMemo(16).Import(e); err == nil {
		t.Fatal("oversized count accepted")
	}
}

func TestMemoImportRespectsCap(t *testing.T) {
	src := NewMemo(16)
	snap := exportAll(src, fillMemo(t, src))

	small := NewMemo(2)
	if _, err := small.Import(snap); err != nil {
		t.Fatal(err)
	}
	if small.Len() > 2 {
		t.Fatalf("capped memo holds %d entries, cap 2", small.Len())
	}
}

// ExportFor writes only the requested targets' entries — deduplicated,
// absent ones skipped — in the snapshot format Import reads.
func TestMemoExportForScopesSnapshot(t *testing.T) {
	src := NewMemo(16)
	targets := fillMemo(t, src)
	bm := MeasureB(platform.A, nil)
	unsolved := perfmodel.Counters{7e8, 3e8, 1e8, 5e6, 3e6, 1e5}
	snap := src.ExportFor(bm, []perfmodel.Counters{targets[2], unsolved, targets[0], targets[2]})

	dst := NewMemo(16)
	added, err := dst.Import(snap)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("imported %d entries, want 2 (targets 0 and 2)", added)
	}
	for _, i := range []int{0, 2} {
		want, _ := CachedSearch(src, bm, targets[i])
		got, _ := CachedSearch(dst, bm, targets[i])
		if got != want {
			t.Errorf("target %d: imported %v, source %v", i, got, want)
		}
	}
	if hits, _ := dst.Stats(); hits != 2 {
		t.Errorf("imported entries answered %d lookups, want 2", hits)
	}
	// A different B matrix keys different entries: nothing to export.
	other := MeasureB(platform.A, perfmodel.NewNoise(0.01, 7))
	if n, _ := NewMemo(16).Import(src.ExportFor(other, targets)); n != 0 {
		t.Errorf("snapshot under a foreign B matrix holds %d entries, want 0", n)
	}
}
