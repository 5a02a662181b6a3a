package wal

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/planarcert/planarcert/internal/graph"
)

// goldenBatches is the fixture behind the frozen-format tests.
var goldenBatches = []Batch{
	{Seq: 1, Updates: []Update{{Op: OpAddNode, A: 7}, {Op: OpAddEdge, A: 0, B: 7}}},
	{Seq: 2, Updates: []Update{{Op: OpRemoveEdge, A: 0, B: 7}}},
}

// goldenWALHex freezes the WAL on-disk format (header + two records).
// If this test breaks, the format changed: bump logVersion and keep
// decoding version 1 — do not just update the constant.
const goldenWALHex = "504345525457414c010000000f000000d9426926010000000000000002030e0001000e0c000000fcc66ecb02000000000000000102000e"

func writeGoldenLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _, err := OpenLog(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches {
		if err := l.Append(b.Seq, b.Updates); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGoldenWAL(t *testing.T) {
	raw, err := os.ReadFile(writeGoldenLog(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != goldenWALHex {
		t.Fatalf("WAL bytes changed (on-disk format must stay frozen):\n got %s\nwant %s", got, goldenWALHex)
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := writeGoldenLog(t)
	l, batches, stats, err := OpenLog(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if stats.CorruptRecords != 0 || stats.Truncated {
		t.Fatalf("clean log reported corruption: %+v", stats)
	}
	if !reflect.DeepEqual(batches, goldenBatches) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", batches, goldenBatches)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", l.LastSeq())
	}
	// Appends continue after the replayed tail.
	if err := l.Append(2, nil); err == nil {
		t.Fatal("non-monotonic append accepted")
	}
	if err := l.Append(3, []Update{{Op: OpAddNode, A: 9}}); err != nil {
		t.Fatal(err)
	}
}

// TestWALTruncation cuts the file at every byte boundary and asserts
// replay recovers exactly the records that fit, never panics, and the
// reopened log truncates the torn tail so appending works again.
func TestWALTruncation(t *testing.T) {
	full, err := os.ReadFile(writeGoldenLog(t))
	if err != nil {
		t.Fatal(err)
	}
	// Offsets of record boundaries in the golden file.
	rec1End := logHeaderSize + recordHeaderSize + 15
	rec2End := len(full)
	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, batches, stats, err := OpenLog(path, SyncNever)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		wantRecords := 0
		if cut >= rec1End {
			wantRecords = 1
		}
		if cut >= rec2End {
			wantRecords = 2
		}
		if len(batches) != wantRecords {
			t.Fatalf("cut=%d: got %d records, want %d", cut, len(batches), wantRecords)
		}
		wantTruncated := cut != rec1End && cut != rec2End && cut != logHeaderSize
		if cut < logHeaderSize {
			wantTruncated = true // header rewritten, file preserved as .corrupt
		}
		if stats.Truncated != wantTruncated {
			t.Fatalf("cut=%d: Truncated=%v, want %v (stats %+v)", cut, stats.Truncated, wantTruncated, stats)
		}
		// The log must accept appends after recovery.
		if err := l.Append(l.LastSeq()+1, []Update{{Op: OpAddNode, A: 1}}); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		// And a second replay must see the recovered records plus ours.
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, batches2, stats2, err := OpenLog(path, SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		if len(batches2) != wantRecords+1 || stats2.CorruptRecords != 0 {
			t.Fatalf("cut=%d: second replay got %d records (corrupt %d), want %d",
				cut, len(batches2), stats2.CorruptRecords, wantRecords+1)
		}
	}
}

// TestWALBitFlip flips every byte of the golden file in turn and
// asserts replay never panics, never returns a record whose CRC does
// not match, and always stops at or before the damaged record.
func TestWALBitFlip(t *testing.T) {
	full, err := os.ReadFile(writeGoldenLog(t))
	if err != nil {
		t.Fatal(err)
	}
	rec1End := logHeaderSize + recordHeaderSize + 15
	for pos := 0; pos < len(full); pos++ {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x40
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, batches, stats, err := OpenLog(path, SyncNever)
		if err != nil {
			t.Fatalf("pos=%d: %v", pos, err)
		}
		switch {
		case pos < logHeaderSize:
			// Header damage: fresh log, nothing replayed.
			if len(batches) != 0 || stats.CorruptRecords == 0 {
				t.Fatalf("pos=%d: header flip replayed %d records", pos, len(batches))
			}
		case pos < rec1End:
			// First record damaged: nothing may survive.
			if len(batches) != 0 || stats.CorruptRecords != 1 {
				t.Fatalf("pos=%d: flip in record 1 replayed %d records (stats %+v)", pos, len(batches), stats)
			}
		default:
			// Second record damaged: exactly the first survives.
			if len(batches) != 1 || stats.CorruptRecords != 1 {
				t.Fatalf("pos=%d: flip in record 2 replayed %d records (stats %+v)", pos, len(batches), stats)
			}
			if !reflect.DeepEqual(batches[0], goldenBatches[0]) {
				t.Fatalf("pos=%d: surviving record mutated: %+v", pos, batches[0])
			}
		}
		l.Close()
	}
}

func TestWALResetIfCovered(t *testing.T) {
	path := writeGoldenLog(t)
	l, _, _, err := OpenLog(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ResetIfCovered(1); err != nil {
		t.Fatal(err)
	}
	if l.Size() != int64(logHeaderSize) {
		// seq 1 < lastSeq 2: must NOT have reset.
		l2, batches, _, err := OpenLog(path, SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if len(batches) != 2 {
			t.Fatalf("partial covering reset dropped records: %d left", len(batches))
		}
	} else {
		t.Fatal("ResetIfCovered(1) compacted a log whose tail it does not cover")
	}
	if err := l.ResetIfCovered(2); err != nil {
		t.Fatal(err)
	}
	if l.Size() != int64(logHeaderSize) {
		t.Fatalf("covered reset left %d bytes", l.Size())
	}
	if l.LastSeq() != 2 {
		t.Fatalf("reset lost the sequence floor: %d", l.LastSeq())
	}
	if err := l.Append(3, []Update{{Op: OpAddNode, A: 1}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// FuzzDecodeRecords feeds arbitrary bytes to the record decoder: it
// must never panic and never return a batch that violates sequence
// monotonicity.
func FuzzDecodeRecords(f *testing.F) {
	raw, err := os.ReadFile(writeGoldenLogF(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[logHeaderSize:])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, stats := DecodeRecords(data)
		var last uint64
		for _, b := range batches {
			if b.Seq <= last {
				t.Fatalf("non-monotonic replay: %d after %d", b.Seq, last)
			}
			last = b.Seq
		}
		if stats.Records != len(batches) {
			t.Fatalf("stats.Records=%d, batches=%d", stats.Records, len(batches))
		}
	})
}

// writeGoldenLogF is writeGoldenLog for fuzz targets.
func writeGoldenLogF(f *testing.F) string {
	f.Helper()
	path := filepath.Join(f.TempDir(), "wal.log")
	l, _, _, err := OpenLog(path, SyncNever)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range goldenBatches {
		if err := l.Append(b.Seq, b.Updates); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	return path
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "": SyncAlways, "never": SyncNever, "off": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestErrCorruptWrapped(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("nope")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short snapshot error %v does not wrap ErrCorrupt", err)
	}
	if _, err := decodePayload([]byte{1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short payload error %v does not wrap ErrCorrupt", err)
	}
}

// TestGraphOpCodes pins the mapping between the in-memory graph.Op
// values and the frozen logged codes, in both directions.
func TestGraphOpCodes(t *testing.T) {
	in := []graph.Update{
		{Op: graph.OpAddEdge, A: 1, B: -2},
		{Op: graph.OpRemoveEdge, A: 3, B: 4},
		{Op: graph.OpAddNode, A: 5},
	}
	want := []Update{
		{Op: OpAddEdge, A: 1, B: -2},
		{Op: OpRemoveEdge, A: 3, B: 4},
		{Op: OpAddNode, A: 5},
	}
	got := FromGraph(in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FromGraph = %+v, want %+v", got, want)
	}
	if back := ToGraph(got); !reflect.DeepEqual(back, in) {
		t.Fatalf("ToGraph = %+v, want %+v", back, in)
	}
}
