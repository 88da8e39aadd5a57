package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/journal"
	"contractdb/internal/store"
	"contractdb/internal/wal"
)

// TestOpenRefusesGobSnapshot: a data directory whose only generation
// is a gob snapshot from an older build is refused, and the refusal
// names both the journal's verdict and the loader's cause.
func TestOpenRefusesGobSnapshot(t *testing.T) {
	for _, fixture := range []string{"snapshot-v2.golden", "snapshot-v3.golden"} {
		t.Run(fixture, func(t *testing.T) {
			gob, err := os.ReadFile(filepath.Join("..", "core", "testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "snapshot-00000000000000000001.ctdb"), gob, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := store.Open(dir, store.Config{Events: events()})
			if err == nil {
				st.Close()
				t.Fatal("store opened on a gob snapshot")
			}
			if !errors.Is(err, journal.ErrUnreadable) || !errors.Is(err, core.ErrUnsupportedFormat) {
				t.Fatalf("open = %v, want both %v and %v", err, journal.ErrUnreadable, core.ErrUnsupportedFormat)
			}
		})
	}
}

// TestReplayRefusesGobRecord: a gob register record in the WAL suffix
// past a v4 snapshot fails recovery by name; it is never skipped.
func TestReplayRefusesGobRecord(t *testing.T) {
	rec, err := os.ReadFile(filepath.Join("..", "core", "testdata", "register-gob-full.rec"))
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
		t.Fatal("store replayed past a gob register record")
	}
	if !errors.Is(err, core.ErrUnsupportedFormat) {
		t.Fatalf("open = %v, want %v", err, core.ErrUnsupportedFormat)
	}
}
