package core_test

import (
	"context"
	"errors"
	"fmt"
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
// record — the projection export and the container encoding — before
// it takes the engine's write lock, so a query on the same database
// completes while a registration is parked inside that step. Register
// and RegisterBatch both encode in their prepare step.
func TestQueryWhileRegisterEncodes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(db *core.DB, specs []*ltl.Expr) error
	}{
		{"register", func(db *core.DB, specs []*ltl.Expr) error {
			for i, q := range specs {
				if _, err := db.Register(fmt.Sprintf("parked%d", i), q); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch", func(db *core.DB, specs []*ltl.Expr) error {
			var regs []core.Registration
			for i, q := range specs {
				regs = append(regs, core.Registration{Name: fmt.Sprintf("parked%d", i), Spec: q})
			}
			var errs []error
			for _, r := range db.RegisterBatch(context.Background(), regs, 2) {
				errs = append(errs, r.Err)
			}
			return errors.Join(errs...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs, ref := namedCorpus(t, 31, 5)
			db := core.NewDB(ref.Vocabulary(), core.Options{MaxAutomatonStates: 300})
			registerNamed(t, db, specs[:3])
			log := &captureLog{}
			db.SetOpLog(log)

			entered, release := parkEncoder(t, db)
			registered := make(chan error, 1)
			go func() { registered <- tc.register(db, specs[3:]) }()
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
			if db.Len() != 5 || len(log.records) != 2 {
				t.Fatalf("after release: %d contracts and %d log records, want 5 and 2", db.Len(), len(log.records))
			}
		})
	}
}
