package stream

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/journal"
	"contractdb/internal/vocab"
	"contractdb/internal/wal"
)

// crash abandons the broker without the final checkpoint Close takes,
// simulating a process crash for recovery tests: queues drain (the
// "crash" happens after the worker applied what was acknowledged — the
// WAL already holds everything, so this only makes the test
// deterministic) but no snapshot is written and the WAL is left as-is.
func (b *Broker) crash() {
	b.closed.Store(true)
	for _, sh := range b.shards {
		sh.ingestMu.Lock()
	}
	for _, sh := range b.shards {
		for sh.pending.Load() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
		close(sh.queue)
	}
	for _, sh := range b.shards {
		sh.ingestMu.Unlock()
	}
	b.wg.Wait()
	if b.journal != nil {
		b.journal.Close()
	}
}

func journalDB(t *testing.T) *core.DB {
	t.Helper()
	voc := vocab.MustFromNames("pay", "use", "refund", "change")
	db := core.NewDB(voc, core.Options{})
	for _, c := range []struct{ name, spec string }{
		{"NoRefund", "G !refund"},
		{"PayBeforeUse", "G(use -> F pay)"},
	} {
		if _, err := db.RegisterLTL(c.name, c.spec); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// snapshotFiles lists the directory's snapshot generations; every
// generation this build writes has the same width, so name order is
// boundary order.
func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "streams-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func durableCfg(dir string) Config {
	return Config{Shards: 2, Dir: dir, Sync: wal.SyncAlways, CheckpointRecords: -1}
}

// TestJournalReplayAfterCrash: no checkpoint ever taken — recovery must
// rebuild every stream and verdict purely from the WAL.
func TestJournalReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	ctx := context.Background()

	b1, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Recovery.Clean {
		t.Fatalf("fresh dir recovery = %+v, want clean", b1.Recovery)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := b1.Create(ctx, name, []string{"NoRefund", "PayBeforeUse"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b1.AppendEvents(ctx, "a", [][]string{{"use"}, {"refund"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.AppendEvents(ctx, "b", [][]string{{"use"}, {"pay"}}); err != nil {
		t.Fatal(err)
	}
	if err := b1.Delete(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	b1.WaitIdle()
	wantInfos := b1.List()
	wantVerdicts := map[string][]Verdict{}
	for _, in := range wantInfos {
		vs, err := b1.Verdicts(ctx, in.Name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantVerdicts[in.Name] = vs
	}
	b1.crash()

	b2, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if b2.Recovery.Clean || b2.Recovery.ReplayedRecords == 0 {
		t.Fatalf("recovery after crash = %+v, want replayed records", b2.Recovery)
	}
	if b2.Recovery.SnapshotPath != "" {
		t.Fatalf("no checkpoint was taken, but recovery found snapshot %q", b2.Recovery.SnapshotPath)
	}
	if got := b2.List(); !reflect.DeepEqual(got, wantInfos) {
		t.Fatalf("recovered streams = %+v\nwant %+v", got, wantInfos)
	}
	for name, want := range wantVerdicts {
		got, err := b2.Verdicts(ctx, name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %s verdicts after recovery = %+v\nwant %+v", name, got, want)
		}
	}
	// The recovered frontier keeps stepping correctly: b's PayBeforeUse
	// obligation was met, a fresh use re-arms it, and a refund still
	// violates NoRefund on stream b at the right index.
	if _, err := b2.AppendEvents(ctx, "b", [][]string{{"refund"}}); err != nil {
		t.Fatal(err)
	}
	b2.WaitIdle()
	vs, err := b2.Verdicts(ctx, "b", len(wantVerdicts["b"]), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Contract != "NoRefund" || vs[0].To != "violated" || vs[0].EventIndex != 3 {
		t.Fatalf("post-recovery verdicts = %+v", vs)
	}
}

// TestJournalCheckpointResume: after a checkpoint, recovery must come
// from the snapshot frontier — replaying only records past the
// boundary, not the stream's whole history.
func TestJournalCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	ctx := context.Background()

	b1, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Create(ctx, "s", []string{"NoRefund", "PayBeforeUse"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.AppendEvents(ctx, "s", [][]string{{"use"}, {"use"}, {"pay"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Two records past the boundary; only these may replay.
	if _, err := b1.AppendEvents(ctx, "s", [][]string{{"use"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.AppendEvents(ctx, "s", [][]string{{"refund"}}); err != nil {
		t.Fatal(err)
	}
	b1.WaitIdle()
	want, err := b1.Verdicts(ctx, "s", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1.crash()

	b2, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if b2.Recovery.SnapshotSeq == 0 || b2.Recovery.SnapshotPath == "" {
		t.Fatalf("recovery ignored the checkpoint: %+v", b2.Recovery)
	}
	if b2.Recovery.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records past the boundary, want 2", b2.Recovery.ReplayedRecords)
	}
	got, err := b2.Verdicts(ctx, "s", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts after checkpointed recovery = %+v\nwant %+v", got, want)
	}
	info, err := b2.Info("s")
	if err != nil {
		t.Fatal(err)
	}
	if info.Events != 5 || info.Statuses[0] != "violated" {
		t.Fatalf("recovered info = %+v", info)
	}
}

// TestJournalCleanCloseRecoversClean: Close checkpoints, so the next
// open replays nothing.
func TestJournalCleanCloseRecoversClean(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	ctx := context.Background()

	b1, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Create(ctx, "s", []string{"NoRefund"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.AppendEvents(ctx, "s", [][]string{{"use"}, {"refund"}}); err != nil {
		t.Fatal(err)
	}
	b1.WaitIdle()
	want, err := b1.Verdicts(ctx, "s", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if !b2.Recovery.Clean || b2.Recovery.ReplayedRecords != 0 {
		t.Fatalf("recovery after clean close = %+v, want clean", b2.Recovery)
	}
	got, err := b2.Verdicts(ctx, "s", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts after clean reopen = %+v\nwant %+v", got, want)
	}
}

// TestAutoCheckpoint: crossing the record threshold triggers a
// background checkpoint that leaves a snapshot file behind.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	ctx := context.Background()

	cfg := durableCfg(dir)
	cfg.CheckpointRecords = 4
	b, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Create(ctx, "s", []string{"NoRefund"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := b.AppendEvents(ctx, "s", [][]string{{"use"}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(snapshotFiles(t, dir)) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot appeared after crossing the auto-checkpoint threshold")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecoverySkipsCorruptSnapshot: a torn snapshot falls back to the
// previous generation plus WAL replay instead of refusing to start.
func TestRecoverySkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	ctx := context.Background()

	b1, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Create(ctx, "s", []string{"NoRefund"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.AppendEvents(ctx, "s", [][]string{{"use"}}); err != nil {
		t.Fatal(err)
	}
	// First generation: snapshot at this boundary.
	if _, err := b1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.AppendEvents(ctx, "s", [][]string{{"refund"}}); err != nil {
		t.Fatal(err)
	}
	b1.WaitIdle()
	want, err := b1.Verdicts(ctx, "s", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Second generation via Close's final checkpoint.
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot in place (as a torn write would);
	// recovery must fall back to the first generation and replay the
	// WAL suffix past its boundary, which pruning retained.
	paths := snapshotFiles(t, dir)
	if len(paths) < 2 {
		t.Fatalf("want 2 snapshot generations after close, got %v", paths)
	}
	newest := paths[len(paths)-1]
	if err := os.WriteFile(newest, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	b2, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	found := false
	for _, p := range b2.Recovery.SkippedSnapshots {
		if filepath.Base(p) == filepath.Base(newest) {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovery did not report the torn snapshot: %+v", b2.Recovery)
	}
	got, err := b2.Verdicts(ctx, "s", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts after torn-snapshot recovery = %+v\nwant %+v", got, want)
	}
}

// TestRecoveryResetsChangedAutomaton: a contract re-registered with a
// different automaton size invalidates the persisted frontier; the
// attachment restarts from the initial state instead of stepping
// garbage.
func TestRecoveryResetsChangedAutomaton(t *testing.T) {
	dir := t.TempDir()
	voc := vocab.MustFromNames("pay", "use", "refund", "change")
	db1 := core.NewDB(voc, core.Options{})
	if _, err := db1.RegisterLTL("C", "G(use -> F pay)"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b1, err := New(db1, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Create(ctx, "s", []string{"C"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.AppendEvents(ctx, "s", [][]string{{"use"}}); err != nil {
		t.Fatal(err)
	}
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	// Same contract name, structurally different automaton.
	db2 := core.NewDB(voc, core.Options{})
	if _, err := db2.RegisterLTL("C", "G(use -> F pay) && G(refund -> X G !use)"); err != nil {
		t.Fatal(err)
	}
	var logs []string
	cfg := durableCfg(dir)
	cfg.Logf = func(format string, args ...any) { logs = append(logs, format) }
	b2, err := New(db2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	info, err := b2.Info("s")
	if err != nil {
		t.Fatal(err)
	}
	// Events counter survives; the frontier restarted from initial.
	if info.Events != 1 || info.Statuses[0] != "compliant" {
		t.Fatalf("info after automaton change = %+v", info)
	}
	reset := false
	for _, l := range logs {
		if strings.Contains(l, "frontier reset") {
			reset = true
		}
	}
	if !reset {
		t.Fatalf("no frontier-reset log line; got %q", logs)
	}
}

// checkpointedDir leaves a closed broker's directory holding two
// snapshot generations and a stream with a violated verdict, and
// returns that stream's verdicts.
func checkpointedDir(t *testing.T, db *core.DB, dir string) []Verdict {
	t.Helper()
	ctx := context.Background()
	b, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Create(ctx, "s", []string{"NoRefund", "PayBeforeUse"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AppendEvents(ctx, "s", [][]string{{"use"}, {"pay"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AppendEvents(ctx, "s", [][]string{{"refund"}}); err != nil {
		t.Fatal(err)
	}
	b.WaitIdle()
	want, err := b.Verdicts(ctx, "s", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(snapshotFiles(t, dir)); n != 2 {
		t.Fatalf("%d snapshot generations after close, want 2", n)
	}
	return want
}

// TestAllSnapshotsTornRefused: with every generation torn, the pruned
// WAL cannot rebuild the streams, so New must refuse instead of coming
// up empty.
func TestAllSnapshotsTornRefused(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	checkpointedDir(t, db, dir)
	for _, p := range snapshotFiles(t, dir) {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := New(db, durableCfg(dir))
	if err == nil {
		b.Close()
		t.Fatalf("broker opened with every snapshot torn: %+v", b.Recovery)
	}
	if !errors.Is(err, journal.ErrUnreadable) {
		t.Fatalf("open = %v, want %v", err, journal.ErrUnreadable)
	}
}

// TestWALLostRefused: a WAL directory removed under a snapshot must be
// refused. Opening would restart sequences below the boundary, and the
// next recovery would skip every event acknowledged after it.
func TestWALLostRefused(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	checkpointedDir(t, db, dir)
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	b, err := New(db, durableCfg(dir))
	if err == nil {
		b.Close()
		t.Fatalf("broker opened with its WAL lost: %+v", b.Recovery)
	}
	if !errors.Is(err, journal.ErrLost) || !strings.Contains(err.Error(), "log lost") {
		t.Fatalf("open = %v, want a log-lost error", err)
	}
}

// TestStaleSnapshotTempRemoved: a crash mid-checkpoint leaves a temp
// file the rename never promoted; New deletes it and recovers.
func TestStaleSnapshotTempRemoved(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	want := checkpointedDir(t, db, dir)
	tmp := filepath.Join(dir, "streams-00000000000000000099.snap.tmp")
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("stale checkpoint temp file survived recovery")
	}
	got, err := b.Verdicts(context.Background(), "s", 0, 0)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts after recovery = %+v (%v), want %+v", got, err, want)
	}
}

// TestSixteenDigitGenerationReopens: generations named with the
// 16-digit boundary earlier builds wrote still load, newest by
// boundary, with identical verdicts.
func TestSixteenDigitGenerationReopens(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	want := checkpointedDir(t, db, dir)
	var newest uint64
	for _, p := range snapshotFiles(t, dir) {
		var boundary uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "streams-%d.snap", &boundary); err != nil {
			t.Fatal(err)
		}
		newest = max(newest, boundary)
		if err := os.Rename(p, filepath.Join(dir, fmt.Sprintf("streams-%016d.snap", boundary))); err != nil {
			t.Fatal(err)
		}
	}
	b, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.Recovery.Clean || b.Recovery.SnapshotSeq != newest {
		t.Errorf("recovery = %+v, want generation %d loaded clean", b.Recovery, newest)
	}
	got, err := b.Verdicts(context.Background(), "s", 0, 0)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts after reopening 16-digit generations = %+v (%v), want %+v", got, err, want)
	}
}

// TestLegacyEventRecordsReplay: a journal whose event batches are
// recEventsRaw records, written by earlier builds' encoder, replays to
// the frontiers, statuses and verdicts that the same batches
// journaled as recEvents records replay to, and keeps recovering once
// the broker appends new records after them.
func TestLegacyEventRecordsReplay(t *testing.T) {
	db := journalDB(t)
	ctx := context.Background()
	batches := []struct {
		stream string
		events [][]string
	}{
		{"a", [][]string{{"use"}, {}, {"pay"}}},
		{"b", [][]string{{"use", "change"}}},
		{"a", [][]string{{"use"}, {"refund"}}},
		{"b", [][]string{{}, {}, {"pay"}, {"use"}}},
	}
	journalDir := func(legacy bool) string {
		dir := t.TempDir()
		b, err := New(db, durableCfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b"} {
			if _, err := b.Create(ctx, name, []string{"NoRefund", "PayBeforeUse"}); err != nil {
				t.Fatal(err)
			}
		}
		first := map[string]uint64{}
		for _, bt := range batches {
			if !legacy {
				if _, err := b.AppendEvents(ctx, bt.stream, bt.events); err != nil {
					t.Fatal(err)
				}
				continue
			}
			snaps := make([]vocab.Set, len(bt.events))
			for i, evs := range bt.events {
				if snaps[i], err = db.Vocabulary().SetOf(evs...); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := b.journal.Append(recEventsRaw, encodeEventsRaw(nil, bt.stream, first[bt.stream], snaps)); err != nil {
				t.Fatal(err)
			}
			first[bt.stream] += uint64(len(snaps))
		}
		b.crash()
		return dir
	}
	// reopen recovers dir, checks how many records it replayed, and
	// returns the recovered state with the broker.
	reopen := func(dir string, replayed int) (*Broker, generation) {
		b, err := New(db, durableCfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		if b.Recovery.ReplayedRecords != replayed {
			t.Fatalf("%s replayed %d records, want %d", dir, b.Recovery.ReplayedRecords, replayed)
		}
		return b, state(b)
	}
	dirs := []string{journalDir(false), journalDir(true)}
	records := 2 + len(batches)
	for round := 0; round < 2; round++ {
		var states [2]generation
		for i, dir := range dirs {
			b, state := reopen(dir, records)
			states[i] = state
			// The next round replays a recEvents record past the
			// legacy ones.
			if _, err := b.AppendEvents(ctx, "b", [][]string{{"refund"}}); err != nil {
				t.Fatal(err)
			}
			b.WaitIdle()
			b.crash()
		}
		if !reflect.DeepEqual(states[1], states[0]) {
			t.Fatalf("round %d: legacy journal recovered %+v\nwant %+v", round, states[1], states[0])
		}
		if a := states[0].streams[0]; a.atts[0].status != Violated || a.events != 5 {
			t.Fatalf("round %d: stream a recovered %+v, want NoRefund violated after 5 events", round, a)
		}
		records++
	}
}

// TestCheckpointLagExact: RecordsSinceCheckpoint counts exactly the
// records past the last checkpoint's boundary, the ones a crash would
// replay: records acknowledged while a checkpoint commits count toward
// the next one, and a recovered broker counts the records it replayed.
func TestCheckpointLagExact(t *testing.T) {
	dir := t.TempDir()
	db := journalDB(t)
	ctx := context.Background()
	b, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	streams := []string{"a", "b", "c", "d"}
	for _, name := range streams {
		if _, err := b.Create(ctx, name, []string{"NoRefund"}); err != nil {
			t.Fatal(err)
		}
	}
	lag := func(b *Broker, boundary uint64) {
		t.Helper()
		st, _ := b.JournalStats()
		if want := int64(b.journal.NextSeq() - boundary); st.RecordsSinceCheckpoint != want {
			t.Fatalf("RecordsSinceCheckpoint = %d, want %d records past boundary %d", st.RecordsSinceCheckpoint, want, boundary)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, name := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.AppendEvents(ctx, name, [][]string{{"use"}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var boundary uint64
	for i := 0; i < 20; i++ {
		if boundary, err = b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	lag(b, boundary)
	b.crash()

	b, err = New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	lag(b, b.Recovery.SnapshotSeq)
}
