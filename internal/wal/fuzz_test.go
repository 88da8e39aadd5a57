package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the segment reader as the
// contents of a tail segment. Whatever the bytes, Open and Replay must
// never panic; and when Open succeeds, the records it recovers must be
// a valid prefix: re-encoding the header plus every replayed frame
// must reproduce the (possibly truncated) file byte for byte.
func FuzzWALReplay(f *testing.F) {
	// Seed with well-formed logs of increasing structure plus damaged
	// variants, so the fuzzer starts near the interesting surface.
	empty := header(1)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(empty)
	one := append(header(1), encodeFrame(nil, 1, 2, []byte("payload"))...)
	f.Add(one)
	three := append([]byte(nil), header(1)...)
	for seq := uint64(1); seq <= 3; seq++ {
		three = append(three, encodeFrame(nil, seq, byte(seq), bytes.Repeat([]byte{byte(seq)}, int(seq)*5))...)
	}
	f.Add(three)
	f.Add(three[:len(three)-4]) // torn tail
	flipped := append([]byte(nil), three...)
	flipped[len(header(1))+3] ^= 0x40 // corrupt first record
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			return // refusing is always a legal answer
		}
		defer l.Close()

		var recs []Record
		if err := l.Replay(1, func(r Record) error {
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatalf("Open accepted the log but Replay failed: %v", err)
		}

		// Valid-prefix property: the accepted file (after any torn-tail
		// truncation Open performed) is exactly the canonical encoding
		// of the recovered records.
		want := header(1)
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d (not contiguous)", i, r.Seq)
			}
			want = append(want, encodeFrame(nil, r.Seq, r.Type, r.Data)...)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file after Open is not the canonical encoding of the replayed records:\nfile %d bytes, re-encoding %d bytes", len(got), len(want))
		}
	})
}
