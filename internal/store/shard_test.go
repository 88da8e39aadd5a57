package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/shard"
	"contractdb/internal/store"
)

func queryNames(t testing.TB, sdb *shard.DB, src string) []string {
	t.Helper()
	q, err := ltl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sdb.QueryMode(q, core.Mode{Prefilter: true, Bisim: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(res.Matches))
	for i, c := range res.Matches {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// TestShardedStoreCrashReopen: a sharded store logs every mutation to
// the shared WAL, and a crash copy reopens — at a different shard
// count — onto exactly the surviving state. Placement is derived from
// contract names, so the record stream is count-agnostic.
func TestShardedStoreCrashReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events(), Shards: 4, Core: core.Options{MaxAutomatonStates: 300}}
	st := openStore(t, dir, cfg)
	sdb := st.DB()
	if sdb.NumShards() != 4 {
		t.Fatalf("DB() has %d shards, want 4", sdb.NumShards())
	}

	gen := datagen.New(sdb.Vocabulary(), 11)
	for sdb.Len() < 12 {
		if _, err := sdb.Register("", gen.Specification(2)); err != nil {
			continue
		}
	}
	victims := sdb.Contracts()
	for _, c := range victims[:3] {
		if err := sdb.Unregister(c.Name); err != nil {
			t.Fatal(err)
		}
	}
	wantLen := sdb.Len()
	want := queryNames(t, sdb, "F p1")

	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	cfg2 := cfg
	cfg2.Shards = 2
	st2 := openStore(t, crashed, cfg2)
	got := st2.DB()
	if got.NumShards() != 2 {
		t.Fatalf("reopened DB() has %d shards, want 2", got.NumShards())
	}
	if got.Len() != wantLen {
		t.Fatalf("recovered %d contracts, want %d", got.Len(), wantLen)
	}
	if g, w := fmt.Sprint(queryNames(t, got, "F p1")), fmt.Sprint(want); g != w {
		t.Fatalf("recovered answers %s, pre-crash answered %s", g, w)
	}
	if _, err := got.RegisterLTL("post-crash", "F p1"); err != nil {
		t.Fatalf("recovered sharded store refuses writes: %v", err)
	}
}

// TestShardedStoreUpgradeDowngrade: the shard count is a runtime
// choice, not a property of the data (I4). One directory, whose newest
// snapshot is the committed v4 golden, opens at 0, 1, 2 and 4 shards:
// it recovers zero-copy with every compiled form adopted, answers
// identically, and its next checkpoint is byte-identical at every
// count.
func TestShardedStoreUpgradeDowngrade(t *testing.T) {
	opts := core.Options{MaxAutomatonStates: 300}
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "snapshot-v4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cdb, err := core.Load(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}

	var wantSnap []byte
	var wantAnswers string
	for _, n := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "snapshot-00000000000000000001.ctdb"), golden, 0o644); err != nil {
				t.Fatal(err)
			}
			st := openStore(t, dir, store.Config{Events: events(), Shards: n, Core: opts})
			db := st.DB()
			if want := max(1, n); db.NumShards() != want {
				t.Fatalf("DB() has %d shards, want %d", db.NumShards(), want)
			}
			rec := st.Recovery
			if rec.MappedBytes == 0 && rec.MmapFallback != "unsupported-platform" {
				t.Errorf("snapshot was not mapped (fallback %q)", rec.MmapFallback)
			}
			if rec.CompiledAdopted != cdb.Len() || db.Len() != cdb.Len() {
				t.Errorf("recovered %d contracts with %d compiled forms adopted, want %d of each",
					db.Len(), rec.CompiledAdopted, cdb.Len())
			}
			if _, err := db.RegisterLTL("upgraded", "F p2"); err != nil {
				t.Fatal(err)
			}
			answers := fmt.Sprint(queryNames(t, db, "F p1"), queryNames(t, db, "G !p3"))
			boundary, err := st.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("snapshot-%020d.ctdb", boundary)))
			if err != nil {
				t.Fatal(err)
			}
			if info, err := core.PeekV4(snap); err != nil || info.Contracts != cdb.Len()+1 {
				t.Fatalf("checkpoint wrote %+v (%v), want a v4 container of %d contracts", info, err, cdb.Len()+1)
			}
			if wantSnap == nil {
				wantSnap, wantAnswers = snap, answers
				return
			}
			if !bytes.Equal(snap, wantSnap) {
				t.Error("checkpoint bytes depend on the shard count")
			}
			if answers != wantAnswers {
				t.Errorf("answers %s, first count answered %s", answers, wantAnswers)
			}
		})
	}
}
