package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"contractdb/internal/metrics"
)

// collect replays the whole log into a slice.
func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(from, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(byte(i%3), []byte(fmt.Sprintf("record-%d-payload", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10)
	recs := collect(t, l, 1)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
		if want := fmt.Sprintf("record-%d-payload", i); string(r.Data) != want {
			t.Errorf("record %d data %q, want %q", i, r.Data, want)
		}
		if r.Type != byte(i%3) {
			t.Errorf("record %d type %d, want %d", i, r.Type, i%3)
		}
	}
	if got := collect(t, l, 7); len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("replay from 7: got %d records starting at %d", len(got), got[0].Seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, appends continue the sequence.
	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.TruncatedBytes != 0 {
		t.Fatalf("clean reopen truncated %d bytes", l2.TruncatedBytes)
	}
	if got := l2.NextSeq(); got != 11 {
		t.Fatalf("NextSeq after reopen = %d, want 11", got)
	}
	if len(collect(t, l2, 1)) != 10 {
		t.Fatal("records lost across reopen")
	}
}

// TestTornTailTruncated cuts the log at every possible byte offset —
// the on-disk states a crash mid-append can leave — and checks Open
// recovers exactly the records whose frames are complete.
func TestTornTailTruncated(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(src, segmentName(1))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: record i's frame ends at ends[i].
	frame := FrameSize(len("record-0-payload"))
	var ends []int64
	for i := 1; i <= 5; i++ {
		ends = append(ends, headerSize+int64(i)*frame)
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		complete := 0
		for _, e := range ends {
			if int64(cut) >= e {
				complete++
			}
		}
		recs := collect(t, l2, 1)
		if len(recs) != complete {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(recs), complete)
		}
		wantTrunc := int64(cut)
		if complete > 0 {
			wantTrunc = int64(cut) - ends[complete-1]
		}
		if complete == 0 && cut >= headerSize {
			wantTrunc = int64(cut) - headerSize
		}
		if l2.TruncatedBytes != wantTrunc {
			t.Fatalf("cut at %d: truncated %d bytes, want %d", cut, l2.TruncatedBytes, wantTrunc)
		}
		// The durable prefix stays appendable.
		if _, err := l2.Append(9, []byte("after-recovery")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		l2.Close()
	}
}

func TestCorruptTailBytesTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	l.Close()

	segPath := filepath.Join(dir, segmentName(1))
	data, _ := os.ReadFile(segPath)
	// Flip a byte inside the final record's payload.
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open after tail corruption: %v", err)
	}
	defer l2.Close()
	if got := len(collect(t, l2, 1)); got != 4 {
		t.Fatalf("recovered %d records, want 4 (corrupt final record dropped)", got)
	}
	if l2.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes not reported")
	}
}

func TestCorruptMiddleRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	l.Close()

	segPath := filepath.Join(dir, segmentName(1))
	data, _ := os.ReadFile(segPath)
	// Flip a byte inside record 2's payload: records 3..5 still decode,
	// so this cannot be a torn tail.
	data[headerSize+FrameSize(len("record-0-payload"))+12] ^= 0xFF
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{Sync: SyncNever})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("open after mid-log corruption: got %v, want *CorruptionError", err)
	}
}

func TestCorruptSealedSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20) // several rotations at 128-byte segments
	if l.SegmentCount() < 2 {
		t.Fatal("test needs multiple segments")
	}
	paths, _ := segmentPaths(dir)
	l.Close()

	// Any damage to a sealed (non-final) segment must refuse, even at
	// its very tail.
	data, _ := os.ReadFile(paths[0])
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{Sync: SyncNever})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("open after sealed-segment corruption: got %v, want *CorruptionError", err)
	}
}

func TestMissingSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20)
	paths, _ := segmentPaths(dir)
	if len(paths) < 3 {
		t.Fatal("test needs at least 3 segments")
	}
	l.Close()
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNever}); err == nil {
		t.Fatal("open with a missing middle segment succeeded")
	}
}

func TestRotationSealAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 30)
	if l.SegmentCount() < 3 {
		t.Fatalf("expected rotation, have %d segments", l.SegmentCount())
	}

	boundary, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if boundary != 31 {
		t.Fatalf("boundary = %d, want 31", boundary)
	}
	// Sealing an already-empty active segment is a no-op.
	if b2, _ := l.Seal(); b2 != boundary {
		t.Fatalf("second seal moved the boundary: %d", b2)
	}

	pruned, err := l.PruneBelow(boundary)
	if err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Fatal("nothing pruned")
	}
	if l.SegmentCount() != 1 {
		t.Fatalf("%d segments left, want 1 (active)", l.SegmentCount())
	}
	if got := len(collect(t, l, 1)); got != 0 {
		t.Fatalf("%d records left after pruning all", got)
	}
	// Appends continue past the boundary and survive reopen.
	if seq, _ := l.Append(1, []byte("x")); seq != 31 {
		t.Fatalf("append after prune got seq %d, want 31", seq)
	}
	l.Close()
	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2, 1)
	if len(recs) != 1 || recs[0].Seq != 31 {
		t.Fatalf("after reopen: %+v", recs)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: p, SyncInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 5)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if p == SyncInterval {
				time.Sleep(20 * time.Millisecond) // let the ticker run once
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("double close: %v", err)
			}
			if _, err := l.Append(0, nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("append after close: %v", err)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	data := []byte("hello, contract")
	frame := encodeFrame(nil, 42, 7, data)
	if int64(len(frame)) != FrameSize(len(data)) {
		t.Fatalf("frame is %d bytes, FrameSize says %d", len(frame), FrameSize(len(data)))
	}
	rec, n, err := parseFrame(frame, 42)
	if err != nil || n != len(frame) {
		t.Fatalf("parse: %v (n=%d)", err, n)
	}
	if rec.Seq != 42 || rec.Type != 7 || !bytes.Equal(rec.Data, data) {
		t.Fatalf("round trip mangled record: %+v", rec)
	}
	if _, _, err := parseFrame(frame, 43); err == nil {
		t.Fatal("sequence mismatch accepted")
	}
}

func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 512) // a typical small op record
	for _, p := range []SyncPolicy{SyncNever, SyncAlways} {
		b.Run(p.String(), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Sync: p})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(FrameSize(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAppendZeroAllocs: in steady state an append under SyncNever or
// SyncInterval encodes its frame into the log's buffer and allocates
// nothing; the on-disk bytes are pinned by TestFrameRoundTrip and
// FuzzWALReplay.
func TestAppendZeroAllocs(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNever, SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			l, err := Open(t.TempDir(), Options{Sync: policy, Metrics: &metrics.Durability{}})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			data := bytes.Repeat([]byte{7}, 85)
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := l.Append(4, data); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Append allocates %.1f times per record under %s, want 0", allocs, policy)
			}
		})
	}
}
