package store_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"contractdb/internal/bisim"
	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/store"
)

// manualCheckpoints disables both background checkpoint triggers, so
// only explicit Checkpoint calls (and Close) snapshot.
func manualCheckpoints() store.Config {
	return store.Config{
		Events:            events(),
		Core:              core.Options{MaxAutomatonStates: 300},
		CheckpointRecords: -1,
		CheckpointBytes:   -1,
	}
}

// TestCheckpointExportsOnce: a contract's flat export is its
// projection set's flat form, fixed at precomputation, and every
// checkpoint after its registration record (the first, a second one,
// and one after reopening on the mapped snapshot) renders it as it
// stands and derives no quotient. The
// reopened store's snapshot still matches a database built from
// scratch byte for byte.
//
// The one subtest keeps the name it had when registration could also
// run through a background pipeline of ingest workers; zero workers is
// the synchronous registration every store now uses.
func TestCheckpointExportsOnce(t *testing.T) {
	t.Run("ingest-workers=0", func(t *testing.T) {
		checkpointExportsOnce(t, manualCheckpoints())
	})
}

func checkpointExportsOnce(t *testing.T, cfg store.Config) {
	dir := t.TempDir()
	st, err := store.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewDB(datagen.NewVocabulary(), cfg.Core)
	gen := datagen.New(datagen.NewVocabulary(), 13)
	register := func(st *store.Store, n int) {
		t.Helper()
		for added := 0; added < n; {
			name := fmt.Sprintf("c%02d", ref.Len())
			spec := gen.Specification(2)
			if _, err := st.DB().Register(name, spec); err != nil {
				continue // unsatisfiable or over the state bound
			}
			if _, err := ref.Register(name, spec); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	last := uint64(0)
	checkpoint := func(st *store.Store, when string) {
		t.Helper()
		before := bisim.DerivationCount()
		boundary, err := st.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if boundary == last {
			t.Fatalf("%s: checkpoint was a no-op at boundary %d", when, boundary)
		}
		last = boundary
		if d := bisim.DerivationCount() - before; d != 0 {
			t.Fatalf("%s: checkpoint derived %d quotients, want 0", when, d)
		}
	}

	register(st, 6)
	checkpoint(st, "first checkpoint")
	register(st, 1)
	checkpoint(st, "second checkpoint")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, cfg)
	if st2.Recovery.MappedBytes == 0 {
		t.Skipf("snapshot not memory-mapped here (%s)", st2.Recovery.MmapFallback)
	}
	register(st2, 1)
	checkpoint(st2, "checkpoint after reopen")
	if !bytes.Equal(saveBytes(t, st2.DB()), saveBytes(t, ref)) {
		t.Fatal("snapshot rendered from adopted flat forms differs from a fresh database's")
	}
}

// parkEncoder blocks db's first registration-record encoding until
// release is called; entered is closed once a registration is parked.
func parkEncoder(t *testing.T, db *core.DB) (entered <-chan struct{}, release func()) {
	t.Helper()
	in, out := make(chan struct{}), make(chan struct{})
	var once, rel sync.Once
	db.SetEncodeHook(func() {
		parked := false
		once.Do(func() { parked = true; close(in) })
		if parked {
			<-out
		}
	})
	release = func() { rel.Do(func() { close(out) }) }
	t.Cleanup(func() { release(); db.SetEncodeHook(nil) })
	return in, release
}

// TestQueryDuringCheckpointWithPendingRegister (I10): with a
// registration in flight, a checkpoint completes
// without waiting for it, and a query issued meanwhile answers in
// milliseconds. Neither the export nor the record encoding runs under
// the engine lock, so neither can queue readers behind a writer.
func TestQueryDuringCheckpointWithPendingRegister(t *testing.T) {
	st := openStore(t, t.TempDir(), manualCheckpoints())
	db := st.DB()
	gen := datagen.New(db.Vocabulary(), 17)
	for db.Len() < 6 {
		db.Register("", gen.Specification(2))
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for db.Len() < 8 {
		db.Register("", gen.Specification(2))
	}

	entered, release := parkEncoder(t, db)
	registered := make(chan error, 1)
	go func() {
		_, err := db.RegisterLTL("pending", "G(p1 -> F p2)")
		registered <- err
	}()
	<-entered

	checkpointed := make(chan error, 1)
	go func() {
		_, err := st.Checkpoint()
		checkpointed <- err
	}()
	answered := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := db.QueryMode(ltl.MustParse("F p1"), core.Mode{Prefilter: true, Bisim: true, NoCache: true})
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		release()
		t.Fatal("query blocked for over a second during a checkpoint with a registration pending")
	}
	t.Logf("query answered in %v during a checkpoint with a registration pending", time.Since(start))
	select {
	case err := <-checkpointed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("checkpoint waited for a registration parked in its record encoding")
	}

	release()
	if err := <-registered; err != nil {
		t.Fatal(err)
	}
	if _, ok := db.ByName("pending"); !ok {
		t.Fatal("released registration is missing")
	}
}

// TestConcurrentNewEventsCrashReopen: registrations build their log
// records, vocabulary snapshot included, outside the engine lock, so
// concurrent registrations interleave their vocabulary snapshots with
// their log appends. Each round below registers contracts citing
// events nobody has seen, concurrently; a crash
// copy taken after a checkpoint and a second round must reopen onto
// the same vocabulary and the same Save bytes.
func TestConcurrentNewEventsCrashReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := manualCheckpoints()
	st := openStore(t, dir, cfg)
	db := st.DB()
	round := func(r int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 6)
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				spec := fmt.Sprintf("G(r%dn%da -> F r%dn%db) & F p%d", r, i, r, i, i+1)
				if _, err := db.RegisterLTL(fmt.Sprintf("r%dc%d", r, i), spec); err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	round(0)
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	round(1)
	wantNames := db.Vocabulary().Names()
	want := saveBytes(t, db)

	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	st2 := openStore(t, crashed, cfg)
	if st2.Recovery.ReplayedRecords == 0 {
		t.Fatal("crash copy replayed nothing; the second round must come from the log")
	}
	if got := st2.DB().Vocabulary().Names(); !slices.Equal(got, wantNames) {
		t.Fatalf("recovered vocabulary %v, want %v", got, wantNames)
	}
	if got := saveBytes(t, st2.DB()); !bytes.Equal(got, want) {
		t.Fatalf("recovered Save bytes differ (%d vs %d bytes)", len(got), len(want))
	}
}
