package store_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/shard"
	"contractdb/internal/store"
)

func events() []string { return datagen.NewVocabulary().Names() }

// copyDir clones a data directory, simulating what a crash leaves
// behind: whatever bytes the store had written when the lights went
// out (the store itself is never closed).
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// walSegments returns the data directory's WAL segment paths in name
// (= sequence) order.
func walSegments(t testing.TB, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func snapshotFiles(t testing.TB, dir string) []string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.ctdb"))
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// frameEnds parses a segment file's framing and returns the byte
// offset just past each complete frame (the header's end first).
func frameEnds(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const headerSize = 16
	ends := []int64{headerSize}
	off := int64(headerSize)
	for off+8 <= int64(len(data)) {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if off+8+n > int64(len(data)) {
			break
		}
		off += 8 + n
		ends = append(ends, off)
	}
	return ends
}

func saveBytes(t testing.TB, db *shard.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openStore fails the test on error and closes the store when it ends.
func openStore(t testing.TB, dir string, cfg store.Config) *store.Store {
	t.Helper()
	st, err := store.Open(dir, cfg)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestFreshOpenCleanReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events(), Core: core.Options{MaxAutomatonStates: 300}}
	st := openStore(t, dir, cfg)
	if !st.Recovery.Clean {
		t.Errorf("fresh open not clean: %+v", st.Recovery)
	}
	for i := 0; i < 3; i++ {
		spec := fmt.Sprintf("G(p%d -> F p%d)", i+1, i+2)
		if _, err := st.DB().RegisterLTL(fmt.Sprintf("c%d", i), spec); err != nil {
			t.Fatal(err)
		}
	}
	want := saveBytes(t, st.DB())
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2 := openStore(t, dir, cfg)
	if !st2.Recovery.Clean {
		t.Errorf("reopen after clean shutdown replayed: %+v", st2.Recovery)
	}
	if st2.Recovery.ReplayedRecords != 0 {
		t.Errorf("clean reopen replayed %d records", st2.Recovery.ReplayedRecords)
	}
	if got := saveBytes(t, st2.DB()); !bytes.Equal(got, want) {
		t.Error("state diverged across clean shutdown")
	}
}

// TestCrashTruncationRecoversPrefix cuts the copied WAL at every frame
// boundary and at ragged offsets around them. Every cut must recover
// to exactly the state of a database holding the corresponding prefix
// of registrations — byte for byte.
func TestCrashTruncationRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events(), Core: core.Options{MaxAutomatonStates: 300}}
	st := openStore(t, dir, cfg)

	// refBytes[n] is the Save output of a database holding the first n
	// contracts; built incrementally alongside the store.
	oracle, err := shard.New(datagen.NewVocabulary(), core.Options{MaxAutomatonStates: 300}, 1)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := [][]byte{saveBytes(t, oracle)}
	gen := datagen.New(datagen.NewVocabulary(), 7)
	registered := 0
	for registered < 6 {
		spec := gen.Specification(2)
		name := fmt.Sprintf("c%02d", registered)
		if _, err := st.DB().Register(name, spec); err != nil {
			continue // unsatisfiable or oversized; oracle must skip it too
		}
		if _, err := oracle.Register(name, spec); err != nil {
			t.Fatalf("oracle diverged on %s: %v", name, err)
		}
		registered++
		refBytes = append(refBytes, saveBytes(t, oracle))
	}

	segs := walSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("expected one segment, found %v", segs)
	}
	ends := frameEnds(t, segs[0])
	if len(ends) != registered+1 {
		t.Fatalf("parsed %d frames, wrote %d records", len(ends)-1, registered)
	}

	// Cuts are named by frame index, not byte offset, so a change in
	// record sizes does not rename them: endK is the end of frame K
	// (end0 is the segment header's end).
	type cutAt struct {
		name string
		off  int64
	}
	var cuts []cutAt
	for i, e := range ends {
		cuts = append(cuts,
			cutAt{fmt.Sprintf("end%d", i), e},
			cutAt{fmt.Sprintf("end%d+1", i), e + 1},
			cutAt{fmt.Sprintf("end%d+5", i), e + 5})
	}
	last := len(ends) - 1 // rip into the final frame
	cuts = append(cuts, cutAt{fmt.Sprintf("end%d-3", last), ends[last] - 3})

	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			crashed := t.TempDir()
			copyDir(t, dir, crashed)
			seg := walSegments(t, crashed)[0]
			if err := os.Truncate(seg, c.off); err != nil {
				t.Fatal(err)
			}
			st2 := openStore(t, crashed, cfg)
			// Complete frames wholly below the cut survive; the rest is
			// a torn tail.
			wantN := 0
			for _, e := range ends[1:] {
				if e <= c.off {
					wantN++
				}
			}
			if got := st2.DB().Len(); got != wantN {
				t.Fatalf("recovered %d contracts, want %d", got, wantN)
			}
			if st2.Recovery.ReplayedRecords != wantN {
				t.Errorf("replayed %d records, want %d", st2.Recovery.ReplayedRecords, wantN)
			}
			if got := saveBytes(t, st2.DB()); !bytes.Equal(got, refBytes[wantN]) {
				t.Errorf("recovered state differs from a never-crashed %d-contract database", wantN)
			}
			// The recovered store must accept new writes.
			if _, err := st2.DB().RegisterLTL("post-crash", "F p1"); err != nil {
				t.Fatalf("register after recovery: %v", err)
			}
		})
	}
}

// TestCrashCorruptTailBytes scribbles over the final record's payload:
// nothing decodable follows, so the store must treat it as a torn tail
// and recover everything before it.
func TestCrashCorruptTailBytes(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events(), Core: core.Options{MaxAutomatonStates: 300}}
	st := openStore(t, dir, cfg)
	for i := 0; i < 3; i++ {
		if _, err := st.DB().RegisterLTL(fmt.Sprintf("c%d", i), fmt.Sprintf("F p%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	seg := walSegments(t, crashed)[0]
	ends := frameEnds(t, seg)
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := ends[len(ends)-2] // start of the final frame
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xA5}, 16), last+8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := openStore(t, crashed, cfg)
	if st2.DB().Len() != 2 {
		t.Fatalf("recovered %d contracts, want 2", st2.DB().Len())
	}
	if st2.Recovery.TruncatedBytes == 0 {
		t.Error("recovery did not report the truncated tail")
	}
	if st2.Recovery.Clean {
		t.Error("recovery with a truncated tail reported clean")
	}
}

// TestCrashMidLogCorruptionRefused flips bytes in an early record
// while later valid records exist. That cannot be a torn tail, so the
// store must refuse to open rather than silently drop an operation the
// surviving suffix may depend on.
func TestCrashMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events(), Core: core.Options{MaxAutomatonStates: 300}}
	st := openStore(t, dir, cfg)
	for i := 0; i < 3; i++ {
		if _, err := st.DB().RegisterLTL(fmt.Sprintf("c%d", i), fmt.Sprintf("F p%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	seg := walSegments(t, crashed)[0]
	ends := frameEnds(t, seg)
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, ends[0]+8+4); err != nil {
		t.Fatal(err) // into the first record's payload
	}
	f.Close()

	_, err = store.Open(crashed, cfg)
	if err == nil {
		t.Fatal("store opened over mid-log corruption")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("error does not say corrupt: %v", err)
	}
}

// TestCheckpointThenCrash takes a snapshot mid-stream, keeps writing,
// crashes, and checks recovery = snapshot + replayed suffix lands on
// the never-crashed state.
func TestCheckpointThenCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events(), Core: core.Options{MaxAutomatonStates: 300}}
	st := openStore(t, dir, cfg)
	gen := datagen.New(datagen.NewVocabulary(), 11)
	register := func(n int) {
		done := 0
		for done < n {
			if _, err := st.DB().Register("", gen.Specification(2)); err != nil {
				continue
			}
			done++
		}
	}
	register(4)
	if _, err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	register(3)
	if err := st.DB().Unregister("contract-1"); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, st.DB())

	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	st2 := openStore(t, crashed, cfg)
	if st2.Recovery.SnapshotSeq < 2 {
		t.Errorf("recovery ignored the checkpoint: %+v", st2.Recovery)
	}
	// The replayed suffix may overlap the snapshot (the boundary is
	// conservative) but must include at least the post-checkpoint ops.
	if st2.Recovery.ReplayedRecords < 4 {
		t.Errorf("replayed %d records, want >= 4", st2.Recovery.ReplayedRecords)
	}
	if got := saveBytes(t, st2.DB()); !bytes.Equal(got, want) {
		t.Error("recovered state differs from the state at crash")
	}
}

// TestUnregisterDurable: a logged unregister survives a crash.
func TestUnregisterDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events(), Core: core.Options{MaxAutomatonStates: 300}}
	st := openStore(t, dir, cfg)
	for i := 0; i < 3; i++ {
		if _, err := st.DB().RegisterLTL(fmt.Sprintf("c%d", i), fmt.Sprintf("F p%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.DB().Unregister("c1"); err != nil {
		t.Fatal(err)
	}
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	st2 := openStore(t, crashed, cfg)
	if st2.DB().Len() != 2 {
		t.Fatalf("recovered %d contracts, want 2", st2.DB().Len())
	}
	if _, ok := st2.DB().ByName("c1"); ok {
		t.Error("unregistered contract resurrected by recovery")
	}
	if got, want := saveBytes(t, st2.DB()), saveBytes(t, st.DB()); !bytes.Equal(got, want) {
		t.Error("recovered state differs from the state at crash")
	}
}

// TestCheckpointPrunes: checkpoints retain only the configured number
// of snapshots and delete WAL segments the oldest one covers.
func TestCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{
		Events:            events(),
		Core:              core.Options{MaxAutomatonStates: 300},
		SegmentBytes:      1024, // rotate aggressively so pruning has targets
		KeepSnapshots:     2,
		CheckpointRecords: -1,
		CheckpointBytes:   -1,
	}
	st := openStore(t, dir, cfg)
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("r%dc%d", round, i)
			if _, err := st.DB().RegisterLTL(name, fmt.Sprintf("F p%d", i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", round, err)
		}
	}
	if snaps := snapshotFiles(t, dir); len(snaps) != 2 {
		t.Errorf("retained %d snapshots, want 2: %v", len(snaps), snaps)
	}
	// All twelve registrations are covered by the newest snapshot; at
	// most the segments since the second-newest survive.
	if segs := walSegments(t, dir); len(segs) > 6 {
		t.Errorf("%d WAL segments survive pruning: %v", len(segs), segs)
	}
	want := saveBytes(t, st.DB())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, cfg)
	if got := saveBytes(t, st2.DB()); !bytes.Equal(got, want) {
		t.Error("state diverged across prune + reopen")
	}
}

// TestCheckpointNoOp: checkpointing twice with nothing in between must
// not write a second snapshot generation.
func TestCheckpointNoOp(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Config{Events: events()})
	if _, err := st.DB().RegisterLTL("c", "F p1"); err != nil {
		t.Fatal(err)
	}
	b1, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Errorf("idle checkpoint moved the boundary: %d then %d", b1, b2)
	}
}

// TestAutoCheckpoint: crossing the record threshold triggers a
// background checkpoint without any explicit call.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{
		Events:            events(),
		Core:              core.Options{MaxAutomatonStates: 300},
		CheckpointRecords: 3,
	}
	st := openStore(t, dir, cfg)
	base := len(snapshotFiles(t, dir)) // the initial empty snapshot
	for i := 0; i < 4; i++ {
		if _, err := st.DB().RegisterLTL(fmt.Sprintf("c%d", i), "F p1"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snaps := snapshotFiles(t, dir)
		if len(snaps) > base || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	snaps := snapshotFiles(t, dir)
	if len(snaps) <= base {
		t.Fatalf("no background checkpoint after crossing the threshold; snapshots: %v", snaps)
	}
}

// TestAllSnapshotsCorruptRefused: when every snapshot is unreadable
// the WAL alone cannot reconstruct the database (it is pruned against
// snapshots), so Open must refuse rather than serve partial state.
func TestAllSnapshotsCorruptRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events()}
	st := openStore(t, dir, cfg)
	if _, err := st.DB().RegisterLTL("c", "F p1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, snap := range snapshotFiles(t, dir) {
		if err := os.WriteFile(snap, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := store.Open(dir, cfg)
	if err == nil {
		t.Fatal("store opened with every snapshot corrupt")
	}
	if !strings.Contains(err.Error(), "unreadable") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestCorruptNewestSnapshotFallsBack: an unreadable newest snapshot is
// skipped; the previous generation plus a longer WAL replay recovers
// the same state.
func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{
		Events:            events(),
		Core:              core.Options{MaxAutomatonStates: 300},
		KeepSnapshots:     2,
		CheckpointRecords: -1,
		CheckpointBytes:   -1,
	}
	st := openStore(t, dir, cfg)
	if _, err := st.DB().RegisterLTL("a", "F p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DB().RegisterLTL("b", "F p2"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DB().RegisterLTL("c", "F p3"); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, st.DB())

	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	snaps := snapshotFiles(t, crashed)
	if len(snaps) != 2 {
		t.Fatalf("expected 2 snapshots, found %v", snaps)
	}
	// Glob sorts ascending; the last entry is the newest boundary.
	newest := snaps[len(snaps)-1]
	if err := os.WriteFile(newest, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, crashed, cfg)
	if len(st2.Recovery.SkippedSnapshots) != 1 {
		t.Errorf("skipped %v, want exactly the doctored snapshot", st2.Recovery.SkippedSnapshots)
	}
	if st2.Recovery.Clean {
		t.Error("recovery that skipped a snapshot reported clean")
	}
	if got := saveBytes(t, st2.DB()); !bytes.Equal(got, want) {
		t.Error("fallback recovery diverged from the state at crash")
	}
}

// TestSnapshotsDeletedGapRefused: deleting the snapshots out from
// under a pruned WAL leaves a log that starts past sequence 1; the
// store must detect the gap instead of replaying a suffix onto an
// empty database.
func TestSnapshotsDeletedGapRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{
		Events:            events(),
		KeepSnapshots:     1,
		CheckpointRecords: -1,
		CheckpointBytes:   -1,
	}
	st := openStore(t, dir, cfg)
	for i := 0; i < 3; i++ {
		if _, err := st.DB().RegisterLTL(fmt.Sprintf("c%d", i), "F p1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DB().RegisterLTL("late", "F p2"); err != nil {
		t.Fatal(err)
	}
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	for _, snap := range snapshotFiles(t, crashed) {
		if err := os.Remove(snap); err != nil {
			t.Fatal(err)
		}
	}
	_, err := store.Open(crashed, cfg)
	if err == nil {
		t.Fatal("store opened over a log gap")
	}
	if !strings.Contains(err.Error(), "gap") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestStaleTempRemoved: a crash mid-checkpoint leaves a .tmp file the
// rename never promoted; Open must discard it and recover normally.
func TestStaleTempRemoved(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events()}
	st := openStore(t, dir, cfg)
	if _, err := st.DB().RegisterLTL("c", "F p1"); err != nil {
		t.Fatal(err)
	}
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	tmp := filepath.Join(crashed, "snapshot-00000000000000000099.ctdb.tmp")
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, crashed, cfg)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("stale checkpoint temp file survived recovery")
	}
	if st2.DB().Len() != 1 {
		t.Errorf("recovered %d contracts, want 1", st2.DB().Len())
	}
}

// TestClosedStoreRefusesMutation: after Close the in-memory database
// still answers queries but cannot take registrations (the log is
// gone, so accepting one would silently drop durability).
func TestClosedStoreRefusesMutation(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Config{Events: events()})
	if _, err := st.DB().RegisterLTL("c", "F p1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := st.DB().RegisterLTL("late", "F p2"); err == nil {
		t.Fatal("closed store accepted a registration")
	}
	if _, err := st.Checkpoint(); err == nil {
		t.Fatal("closed store accepted a checkpoint")
	}
	res, err := st.DB().QueryLTL("F p1")
	if err != nil {
		t.Fatalf("query after close: %v", err)
	}
	if len(res.Matches) != 1 {
		t.Errorf("query after close matched %d, want 1", len(res.Matches))
	}
}

// TestRecoveredStoreServesQueries: end to end — crash, recover, query.
func TestRecoveredStoreServesQueries(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: events(), Core: core.Options{MaxAutomatonStates: 300}}
	st := openStore(t, dir, cfg)
	if _, err := st.DB().RegisterLTL("always-pay", "G(p1 -> F p2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DB().RegisterLTL("never-p3", "G(!p3)"); err != nil {
		t.Fatal(err)
	}
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	st2 := openStore(t, crashed, cfg)
	res, err := st2.DB().QueryLTL("F p1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.DB().QueryLTL("F p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(want.Matches) {
		t.Fatalf("recovered query matched %d, original store matched %d", len(res.Matches), len(want.Matches))
	}
	for i := range res.Matches {
		if res.Matches[i].Name != want.Matches[i].Name {
			t.Fatalf("match %d: %q vs %q", i, res.Matches[i].Name, want.Matches[i].Name)
		}
	}
}
