package journal_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/metrics"
	"contractdb/internal/store"
	"contractdb/internal/stream"
	"contractdb/internal/vocab"
	"contractdb/internal/wal"
)

func segmentSet(t *testing.T, walDir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, p := range paths {
		set[filepath.Base(p)] = true
	}
	return set
}

// TestSegmentsPrunedCountedOnce: through both journal users, a
// checkpoint after many segment rotations moves SegmentsPruned by
// exactly the number of segment files it deleted.
func TestSegmentsPrunedCountedOnce(t *testing.T) {
	users := []struct {
		name string
		// run fills a journal in dir with small segments, then calls
		// between and checkpoints.
		run func(t *testing.T, dir string, met *metrics.Durability, between func())
	}{
		{"store", func(t *testing.T, dir string, met *metrics.Durability, between func()) {
			st, err := store.Open(dir, store.Config{
				Events:            []string{"a", "b", "c"},
				Sync:              wal.SyncNever,
				SegmentBytes:      64, // every registration record rotates
				KeepSnapshots:     1,
				CheckpointRecords: -1,
				CheckpointBytes:   -1,
				Metrics:           met,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i, spec := range []string{"F a", "G !b", "F c", "G(a -> F b)"} {
				if _, err := st.DB().RegisterLTL(fmt.Sprintf("c%d", i), spec); err != nil {
					t.Fatal(err)
				}
			}
			between()
			if _, err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
		{"broker", func(t *testing.T, dir string, met *metrics.Durability, between func()) {
			db := core.NewDB(vocab.MustFromNames("a", "b", "c"), core.Options{})
			if _, err := db.RegisterLTL("NoB", "G !b"); err != nil {
				t.Fatal(err)
			}
			b, err := stream.New(db, stream.Config{
				Dir:               dir,
				Sync:              wal.SyncNever,
				SegmentBytes:      64, // about two records per segment
				CheckpointRecords: -1,
				Durability:        met,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			ctx := context.Background()
			if _, err := b.Create(ctx, "s", []string{"NoB"}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := b.AppendEvents(ctx, "s", [][]string{{"a"}}); err != nil {
					t.Fatal(err)
				}
			}
			between()
			if _, err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, u := range users {
		t.Run(u.name, func(t *testing.T) {
			dir := t.TempDir()
			walDir := filepath.Join(dir, "wal")
			var met metrics.Durability
			var before map[string]bool
			var pruned0 int64
			u.run(t, dir, &met, func() {
				before = segmentSet(t, walDir)
				pruned0 = met.SegmentsPruned.Value()
			})
			after := segmentSet(t, walDir)
			gone := 0
			for seg := range before {
				if !after[seg] {
					gone++
				}
			}
			if gone < 2 {
				t.Fatalf("only %d segments pruned; the test needs several rotations", gone)
			}
			if got := met.SegmentsPruned.Value() - pruned0; got != int64(gone) {
				t.Errorf("SegmentsPruned moved by %d for %d deleted segment files", got, gone)
			}
		})
	}
}
