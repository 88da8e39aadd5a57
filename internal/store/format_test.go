package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/journal"
	"contractdb/internal/store"
	"contractdb/internal/vocab"
	"contractdb/internal/wal"
)

// TestOpenRefusesGobSnapshot: a data directory whose only generation
// is a gob snapshot from an older build is refused, and the refusal
// names both the journal's verdict and the loader's cause.
func TestOpenRefusesGobSnapshot(t *testing.T) {
	for _, fixture := range []string{"snapshot-v2.golden", "snapshot-v3.golden"} {
		t.Run(fixture, func(t *testing.T) { assertOpenRefuses(t, fixture) })
	}
}

// TestOpenRefusesLegacyV4Snapshot: so is a directory whose only
// generation is a v4 container of a legacy shape — an unsharded head
// carrying a prefilter index, or persisted quotients.
func TestOpenRefusesLegacyV4Snapshot(t *testing.T) {
	for _, fixture := range []string{"snapshot-v4-unsharded.golden", "snapshot-v4-quotients.golden"} {
		t.Run(fixture, func(t *testing.T) { assertOpenRefuses(t, fixture) })
	}
}

func assertOpenRefuses(t *testing.T, fixture string) {
	t.Helper()
	snap, err := os.ReadFile(filepath.Join("..", "core", "testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot-00000000000000000001.ctdb"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Config{Events: events()})
	if err == nil {
		st.Close()
		t.Fatalf("store opened on %s", fixture)
	}
	if !errors.Is(err, journal.ErrUnreadable) || !errors.Is(err, core.ErrUnsupportedFormat) {
		t.Fatalf("open = %v, want both %v and %v", err, journal.ErrUnreadable, core.ErrUnsupportedFormat)
	}
}

// TestReplayRefusesGobRecord: a gob register record in the WAL suffix
// past a v4 snapshot fails recovery by name; it is never skipped.
func TestReplayRefusesGobRecord(t *testing.T) {
	assertReplayRefuses(t, "register-gob-full.rec")
}

// TestReplayRefusesDeferredRecord: so does a Deferred container
// record, as builds with a background registration pipeline logged it
// before the projection precompute.
func TestReplayRefusesDeferredRecord(t *testing.T) {
	assertReplayRefuses(t, "register-v4-deferred.rec")
}

func assertReplayRefuses(t *testing.T, fixture string) {
	t.Helper()
	rec, err := os.ReadFile(filepath.Join("..", "core", "testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := store.Config{Events: events(), CheckpointRecords: -1, CheckpointBytes: -1}
	st := openStore(t, dir, cfg)
	if _, err := st.DB().RegisterLTL("c", "F p1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const registerRecord = 1 // the store's register record type
	if _, err := log.Append(registerRecord, rec); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, cfg)
	if err == nil {
		st2.Close()
		t.Fatalf("store replayed past %s", fixture)
	}
	if !errors.Is(err, core.ErrUnsupportedFormat) {
		t.Fatalf("open = %v, want %v", err, core.ErrUnsupportedFormat)
	}
}

// TestReplayV4Record: a formatVersion-4 register record, as builds
// before format 5 logged it, replays from the WAL suffix into the
// contract its registration builds today, with equal answers, and the
// next checkpoint writes the directory's snapshot as v5.
func TestReplayV4Record(t *testing.T) {
	rec, err := os.ReadFile(filepath.Join("..", "core", "testdata", "register-v4.rec"))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"purchase", "use", "refund", "dateChange"}
	dir := t.TempDir()
	cfg := store.Config{Events: names, CheckpointRecords: -1, CheckpointBytes: -1}
	if err := openStore(t, dir, cfg).Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const registerRecord = 1 // the store's register record type
	if _, err := log.Append(registerRecord, rec); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir, cfg)
	if st.Recovery.ReplayedRecords != 1 {
		t.Fatalf("recovery %+v: want the v4 record replayed", st.Recovery)
	}
	ref := core.NewDB(vocab.MustFromNames(names...), core.Options{})
	if _, err := ref.RegisterLTL("Flexible", "G(purchase -> F refund)"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"F refund", "G !refund", "F (purchase & G !refund)", "purchase U refund"} {
		got, err := st.DB().QueryLTL(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.QueryLTL(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Errorf("%s: %d matches after replay, %d registered", q, len(got.Matches), len(want.Matches))
		}
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.ctdb"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot after the checkpoint (%v)", err)
	}
	data, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	insp, err := core.InspectSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if insp.FormatVersion != 5 || insp.Contracts != 1 {
		t.Errorf("checkpoint after replay: format %d with %d contracts, want format 5 with 1", insp.FormatVersion, insp.Contracts)
	}
}
