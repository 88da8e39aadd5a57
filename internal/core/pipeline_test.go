package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
)

// pipelineCorpus draws n satisfiable specs once, plus a synchronous
// reference database holding them, so pipelined runs can register the
// identical corpus under the identical names. Names are explicit: the
// auto-minting counter advances on rejected draws, so a database that
// redraws and one fed only accepted specs would disagree on names.
func pipelineCorpus(t *testing.T, seed int64, n int) ([]*ltl.Expr, *core.DB) {
	t.Helper()
	voc := datagen.NewVocabulary()
	scratch := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	gen := datagen.New(voc, seed)
	var specs []*ltl.Expr
	for scratch.Len() < n {
		q := gen.Specification(3)
		if _, err := scratch.Register("", q); err != nil {
			continue
		}
		specs = append(specs, q)
	}
	ref := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	registerNamed(t, ref, specs)
	return specs, ref
}

// registerNamed registers specs under the deterministic names
// c000, c001, ... in order, failing the test on any error.
func registerNamed(t *testing.T, db *core.DB, specs []*ltl.Expr) {
	t.Helper()
	for i, q := range specs {
		if _, err := db.Register(fmt.Sprintf("c%03d", i), q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDegradedTierDifferential: queries against a database whose
// contracts are still at the degraded tier (projections pending) must
// return exactly the synchronous answers in every mode — the
// unprojected automaton is itself a valid projection, so the degraded
// tier trades speed, never correctness. (The issue asks for subset;
// the design delivers equality, which is stronger.)
func TestDegradedTierDifferential(t *testing.T) {
	specs, ref := pipelineCorpus(t, 21, 25)

	opts := core.Options{MaxAutomatonStates: 300, IngestWorkers: 1}
	db := core.NewDB(ref.Vocabulary(), opts)
	defer db.Close()
	registerNamed(t, db, specs)
	// Registration returned before projection precompute finished;
	// confirm the window is observable, then query straight into it.
	rs := db.RegistrationStats()
	if rs.Degraded == 0 && rs.PendingIngest == 0 && rs.Promotions < int64(len(specs)) {
		t.Fatalf("pipeline state inconsistent: %+v", rs)
	}
	queries := goldenQueries(t, ref)
	assertSameAnswers(t, db, ref, queries, "degraded tier vs synchronous")

	db.WaitIdle()
	rs = db.RegistrationStats()
	if rs.Degraded != 0 || rs.PendingIngest != 0 {
		t.Fatalf("pipeline not drained after WaitIdle: %+v", rs)
	}
	if rs.Promotions == 0 {
		t.Error("no promotions recorded; the pipeline never ran")
	}
	assertSameAnswers(t, db, ref, queries, "post-promotion vs synchronous")
}

// TestPromotionMatchesSynchronous: after the pipeline drains, a
// pipelined database is indistinguishable from one that registered
// synchronously — same answers in every mode and byte-identical
// exported registration records (which is what snapshots and the WAL
// are made of).
func TestPromotionMatchesSynchronous(t *testing.T) {
	specs, ref := pipelineCorpus(t, 33, 20)

	db := core.NewDB(ref.Vocabulary(), core.Options{MaxAutomatonStates: 300, IngestWorkers: 2})
	defer db.Close()
	registerNamed(t, db, specs)
	db.WaitIdle()

	assertSameAnswers(t, db, ref, goldenQueries(t, ref), "promoted vs synchronous")

	got, err := db.ExportRegistrations()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExportRegistrations()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("exported %d records, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("record %d named %q, reference %q", i, got[i].Name, want[i].Name)
		}
		if !bytes.Equal(got[i].Record, want[i].Record) {
			t.Errorf("record %q differs between pipelined and synchronous registration (%d vs %d bytes)",
				got[i].Name, len(got[i].Record), len(want[i].Record))
		}
	}
}

// captureLog is an OpLog that records the encoded registration
// records, exactly as the WAL receives them.
type captureLog struct{ records [][]byte }

func (l *captureLog) LogRegister(b []byte) error {
	l.records = append(l.records, append([]byte(nil), b...))
	return nil
}
func (l *captureLog) LogUnregister(string) error { return nil }

// TestDeferredRecordPromotesInline: a pipelined Register encodes its
// WAL record before the contract ever enters the pipeline, so the
// record is always degraded. Replaying such records into a database
// without a pipeline must promote inline — a synchronous database is
// never left at the degraded tier.
func TestDeferredRecordPromotesInline(t *testing.T) {
	specs, ref := pipelineCorpus(t, 77, 8)

	src := core.NewDB(ref.Vocabulary(), core.Options{MaxAutomatonStates: 300, IngestWorkers: 2})
	defer src.Close()
	log := &captureLog{}
	src.SetOpLog(log)
	registerNamed(t, src, specs)
	if len(log.records) != len(specs) {
		t.Fatalf("captured %d records, want %d", len(log.records), len(specs))
	}

	dst := core.NewDB(ref.Vocabulary(), core.Options{MaxAutomatonStates: 300})
	var stats core.LoadStats
	for _, rec := range log.records {
		if err := core.ApplyRegistrationTo(rec, func(string) *core.DB { return dst }, &stats); err != nil {
			t.Fatal(err)
		}
	}
	if stats.Degraded != len(specs) {
		t.Errorf("%d of %d replayed records were degraded, want all (records encode pre-promotion state)",
			stats.Degraded, len(specs))
	}
	rs := dst.RegistrationStats()
	if rs.Degraded != 0 || rs.PendingIngest != 0 {
		t.Errorf("inline promotion incomplete: %+v", rs)
	}
	assertSameAnswers(t, dst, ref, goldenQueries(t, ref), "inline-promoted vs synchronous")
}

// TestQueryDuringPromotionStress races queries against in-flight
// registrations and promotions; run under -race in CI. Every answer
// must be a valid answer for *some* prefix of the registration
// sequence — verified cheaply: matches must be registered contracts,
// and the final drained state must equal the synchronous reference.
func TestQueryDuringPromotionStress(t *testing.T) {
	specs, ref := pipelineCorpus(t, 55, 20)

	db := core.NewDB(ref.Vocabulary(), core.Options{MaxAutomatonStates: 300, IngestWorkers: 2})
	defer db.Close()

	queries := goldenQueries(t, ref)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mode := core.Optimized
			mode.NoCache = w%2 == 0
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				res, err := db.QueryMode(q, mode)
				if err != nil {
					t.Error(err)
					return
				}
				for _, c := range res.Matches {
					if _, ok := db.ByName(c.Name); !ok {
						t.Errorf("query matched unregistered contract %q", c.Name)
						return
					}
				}
			}
		}(w)
	}
	for i, q := range specs {
		if _, err := db.Register(fmt.Sprintf("c%03d", i), q); err != nil {
			t.Error(err)
			break
		}
	}
	db.WaitIdle()
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	assertSameAnswers(t, db, ref, queries, "post-stress vs synchronous")
}
