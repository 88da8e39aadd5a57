package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/ltl"
	"contractdb/internal/shard"
)

func saveBytes(t *testing.T, db interface{ Save(io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func loadBytes(t *testing.T, data []byte, n int) *shard.DB {
	t.Helper()
	db, _, err := shard.LoadBytesWithStats(data, n)
	if err != nil {
		t.Fatalf("load at %d shards: %v", n, err)
	}
	return db
}

// TestSaveDeterministic: saving twice yields identical bytes, and a
// save → load → save round trip reproduces them — including when the
// load re-deals the corpus onto a different shard count.
func TestSaveDeterministic(t *testing.T) {
	_, sdb := buildPair(t, 4, 25, 23)
	first := saveBytes(t, sdb)
	if !bytes.Equal(first, saveBytes(t, sdb)) {
		t.Fatal("two saves of the same database differ")
	}
	for _, n := range []int{1, 2, 4, 8} {
		loaded := loadBytes(t, first, n)
		if loaded.Len() != sdb.Len() {
			t.Fatalf("load at %d shards: %d contracts, want %d", n, loaded.Len(), sdb.Len())
		}
		if loaded.NumShards() != n {
			t.Fatalf("load at %d shards: NumShards = %d", n, loaded.NumShards())
		}
		if got := saveBytes(t, loaded); !bytes.Equal(first, got) {
			t.Fatalf("re-save after load at %d shards differs from original (%d vs %d bytes)", n, len(got), len(first))
		}
	}
}

// TestLoadQueriesMatch: a reloaded database answers exactly like the
// one that was saved, at a different shard count.
func TestLoadQueriesMatch(t *testing.T) {
	_, sdb := buildPair(t, 8, 25, 29)
	loaded := loadBytes(t, saveBytes(t, sdb), 2)
	for _, src := range []string{"F p1", "G (p2 -> F p3)"} {
		q, err := ltl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sdb.QueryMode(q, core.Mode{Prefilter: true, Bisim: true, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.QueryMode(q, core.Mode{Prefilter: true, Bisim: true, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(resultNames(b)), fmt.Sprint(resultNames(a)); g != w {
			t.Fatalf("%q: reloaded %s != original %s", src, g, w)
		}
	}
}

// TestCoreSaveMatchesSharded: core.DB.Save and shard.DB.Save write one
// byte shape — the same corpus saves identically unsharded and at 1, 2
// and 4 shards — and a core.Save file loads at each count, answering
// like the database that wrote it.
func TestCoreSaveMatchesSharded(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		cdb, sdb := buildPair(t, n, 15, 31)
		want := saveBytes(t, cdb)
		if got := saveBytes(t, sdb); !bytes.Equal(got, want) {
			t.Fatalf("%d shards: shard.Save wrote %d bytes, core.Save %d, and they differ", n, len(got), len(want))
		}
		loaded := loadBytes(t, want, n)
		if loaded.Len() != cdb.Len() || loaded.NumShards() != n {
			t.Fatalf("%d shards: loaded %d contracts on %d shards, want %d", n, loaded.Len(), loaded.NumShards(), cdb.Len())
		}
		q := ltl.MustParse("F p1")
		a, err := cdb.QueryMode(q, core.Mode{Prefilter: true, Bisim: true, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.QueryMode(q, core.Mode{Prefilter: true, Bisim: true, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(resultNames(b)), fmt.Sprint(resultNames(a)); g != w {
			t.Fatalf("%d shards: loaded answers %s, core answered %s", n, g, w)
		}
	}
}

// TestLoadGarbage: bytes that are not a v4 container are refused by
// name.
func TestLoadGarbage(t *testing.T) {
	if _, _, err := shard.LoadBytesWithStats([]byte("not a snapshot"), 2); !errors.Is(err, core.ErrUnsupportedFormat) {
		t.Fatalf("loading garbage: got %v, want %v", err, core.ErrUnsupportedFormat)
	}
}
