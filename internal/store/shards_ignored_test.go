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
	"contractdb/internal/store"
)

// Config.Shards is ignored: one core.DB serves every store. The tests
// below keep invariant I4 — nothing persisted names a shard count, so
// a directory written under any Shards value reopens under any other
// with equal answers and bytes.

func queryNames(t testing.TB, sdb *core.DB, src string) []string {
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

// TestShardedStoreCrashReopen: a store opened with Shards 4 logs every
// mutation to the WAL, and a crash copy reopens with Shards 2 onto
// exactly the surviving state.
func TestShardedStoreCrashReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events(), Shards: 4, Core: core.Options{MaxAutomatonStates: 300}}
	st := openStore(t, dir, cfg)
	sdb := st.DB()

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
	if got.Len() != wantLen {
		t.Fatalf("recovered %d contracts, want %d", got.Len(), wantLen)
	}
	if g, w := fmt.Sprint(queryNames(t, got, "F p1")), fmt.Sprint(want); g != w {
		t.Fatalf("recovered answers %s, pre-crash answered %s", g, w)
	}
	if _, err := got.RegisterLTL("post-crash", "F p1"); err != nil {
		t.Fatalf("recovered store refuses writes: %v", err)
	}
}

// TestShardedStoreUpgradeDowngrade: one directory, whose newest
// snapshot is the committed v4 golden, opens with Shards 0, 1, 2 and
// 4: it recovers zero-copy with every compiled form adopted, answers
// identically, and its next checkpoint is byte-identical every time.
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
			if insp, err := core.InspectSnapshot(snap); err != nil || insp.Contracts != cdb.Len()+1 || insp.FormatVersion != 5 {
				t.Fatalf("checkpoint wrote %+v (%v), want a v5 container of %d contracts", insp, err, cdb.Len()+1)
			}
			if wantSnap == nil {
				wantSnap, wantAnswers = snap, answers
				return
			}
			if !bytes.Equal(snap, wantSnap) {
				t.Error("checkpoint bytes depend on Config.Shards")
			}
			if answers != wantAnswers {
				t.Errorf("answers %s, Shards 0 answered %s", answers, wantAnswers)
			}
		})
	}
}
