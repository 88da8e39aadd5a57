package core_test

import (
	"sync"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/ltl"
)

// parkEncoder installs an encode hook on db that blocks the first
// registration-record encoding until release is called. entered is
// closed once a registration is parked.
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

// TestQueryWhileRegisterEncodes (I10): a registration builds its log
// record — the projection export and the gob encoding — before it
// takes the engine's write lock, so a query on the same database
// completes while a registration is parked inside that step.
func TestQueryWhileRegisterEncodes(t *testing.T) {
	specs, ref := namedCorpus(t, 31, 4)
	db := core.NewDB(ref.Vocabulary(), core.Options{MaxAutomatonStates: 300})
	registerNamed(t, db, specs[:3])
	log := &captureLog{}
	db.SetOpLog(log)

	entered, release := parkEncoder(t, db)
	registered := make(chan error, 1)
	go func() {
		_, err := db.Register("parked", specs[3])
		registered <- err
	}()
	<-entered

	query := ltl.MustParse("F p1")
	answered := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := db.QueryMode(query, core.Mode{Prefilter: true, Bisim: true, NoCache: true})
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("query answered in %v with a registration parked in its record encoding", time.Since(start))
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("query blocked behind a registration encoding its log record (I10)")
	}
	if db.Len() != 3 {
		t.Fatalf("parked registration is visible: %d contracts, want 3", db.Len())
	}

	release()
	if err := <-registered; err != nil {
		t.Fatal(err)
	}
	if db.Len() != 4 || len(log.records) != 1 {
		t.Fatalf("after release: %d contracts and %d log records, want 4 and 1", db.Len(), len(log.records))
	}
}
