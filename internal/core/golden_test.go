package core_test

import (
	"bytes"
	"os"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
)

// The golden fixtures under testdata/ hold the same corpus — 20
// contracts drawn from datagen seed 42 with MaxAutomatonStates 300 —
// saved by successive writers: snapshot-v2/v3.golden are gob streams
// this build refuses; snapshot-v4-unsharded.golden (unsharded head
// with a prefilter index), snapshot-v4-quotients.golden (persisted
// quotient rows) and snapshot-v4.golden (the current writer) are v4
// containers that must keep loading.

// goldenCorpus rebuilds the fixtures' corpus from the generator; the
// draw is fully deterministic, so this is the ground truth every
// golden was saved from.
func goldenCorpus(t *testing.T) *core.DB {
	t.Helper()
	voc := datagen.NewVocabulary()
	db := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	gen := datagen.New(voc, 42)
	for db.Len() < 20 {
		if _, err := db.Register("", gen.Specification(3)); err != nil {
			continue
		}
	}
	return db
}

func loadGolden(t *testing.T, path string) (*core.DB, core.LoadStats) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db, stats, err := core.LoadBytesWithStats(data)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	return db, stats
}

// goldenQueries is a fixed query mix against the fixtures' vocabulary.
func goldenQueries(t *testing.T, db *core.DB) []*ltl.Expr {
	t.Helper()
	gen := datagen.New(db.Vocabulary(), 7)
	var out []*ltl.Expr
	for len(out) < 12 {
		out = append(out, gen.Specification(2))
	}
	return out
}

func assertSameAnswers(t *testing.T, got, want *core.DB, queries []*ltl.Expr, label string) {
	t.Helper()
	modes := []core.Mode{
		core.Unoptimized,
		{Prefilter: true},
		{Bisim: true},
		core.Optimized,
	}
	for qi, q := range queries {
		for _, m := range modes {
			rw, err := want.QueryMode(q, m)
			if err != nil {
				t.Fatal(err)
			}
			rg, err := got.QueryMode(q, m)
			if err != nil {
				t.Fatal(err)
			}
			wn, gn := names(rw), names(rg)
			if len(wn) != len(gn) {
				t.Fatalf("%s: query %d mode %+v: got %v, want %v", label, qi, m, gn, wn)
			}
			for n := range wn {
				if !gn[n] {
					t.Fatalf("%s: query %d mode %+v lost match %s", label, qi, m, n)
				}
			}
		}
	}
}

// TestColdStartRatio: loading a snapshot must be at least 10×
// faster than re-registering the same corpus — the tentpole claim at a
// test-sized corpus (the committed BENCH series measures larger ones).
func TestColdStartRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-start ratio needs a real corpus; skipped in -short")
	}
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 3)
	// The benchmark corpus regime (5-property contracts, where
	// projection precompute dominates registration); the committed
	// BENCH series extends the same measurement to larger sizes.
	const size = 50

	start := time.Now()
	db := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	for db.Len() < size {
		if _, err := db.Register("", gen.Specification(datagen.SimpleContracts.Properties)); err != nil {
			continue
		}
	}
	registerTime := time.Since(start)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}

	start = time.Now()
	loaded, err := core.Load(bytes.NewReader(buf.Bytes()))
	loadTime := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != size {
		t.Fatalf("loaded %d contracts, want %d", loaded.Len(), size)
	}
	ratio := float64(registerTime) / float64(loadTime)
	t.Logf("register %v, load %v: %.1fx", registerTime.Round(time.Millisecond), loadTime.Round(time.Millisecond), ratio)
	if ratio < 10 {
		t.Errorf("cold start from snapshot only %.1fx faster than re-registration, want >= 10x", ratio)
	}
}
