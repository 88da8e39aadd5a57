package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
)

// parallelTestDB registers n seeded Dwyer-pattern contracts.
func parallelTestDB(t testing.TB, n int, seed int64) *DB {
	t.Helper()
	voc := datagen.NewVocabulary()
	db := NewDB(voc, Options{MaxAutomatonStates: 300})
	gen := datagen.New(voc, seed)
	for db.Len() < n {
		if _, err := db.Register("", gen.Specification(4)); err != nil {
			continue // unsatisfiable or oversized: redraw
		}
	}
	return db
}

func parallelTestQueries(t testing.TB, db *DB, n int, seed int64) []*ltl.Expr {
	t.Helper()
	gen := datagen.New(db.Vocabulary(), seed)
	var out []*ltl.Expr
	for len(out) < n {
		out = append(out, gen.Specification(2))
	}
	return out
}

func matchNames(res *Result) []string {
	var out []string
	for _, c := range res.Matches {
		out = append(out, c.Name)
	}
	return out
}

// TestParallelMatchesSequential asserts the worker-pool evaluation is
// bit-for-bit identical to the sequential scan — same matches, same
// order — across modes, kernels, and pool widths, for both permission
// and obligation queries.
func TestParallelMatchesSequential(t *testing.T) {
	db := parallelTestDB(t, 40, 5)
	queries := parallelTestQueries(t, db, 6, 91)
	modes := []Mode{
		{}, // unoptimized scan, SCC kernel
		{Algorithm: AlgorithmNestedDFS},
		{Prefilter: true, Bisim: true},
		{Prefilter: true, Bisim: true, Algorithm: AlgorithmNestedDFS},
	}
	for mi, base := range modes {
		// The point is to compare accounting across pool widths, so every
		// run translates afresh.
		base.NoCache = true
		for qi, q := range queries {
			seqMode := base
			seqMode.Parallelism = 1
			seq, err := db.QueryMode(q, seqMode)
			if err != nil {
				t.Fatal(err)
			}
			seqOb, err := db.QueryObligationMode(q, seqMode)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				parMode := base
				parMode.Parallelism = workers
				par, err := db.QueryMode(q, parMode)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprint(matchNames(par)), fmt.Sprint(matchNames(seq)); got != want {
					t.Fatalf("mode %d query %d workers %d: matches %s != sequential %s", mi, qi, workers, got, want)
				}
				if par.Stats.Checked != seq.Stats.Checked {
					t.Fatalf("mode %d query %d workers %d: checked %d != sequential %d",
						mi, qi, workers, par.Stats.Checked, seq.Stats.Checked)
				}
				parOb, err := db.QueryObligationMode(q, parMode)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprint(matchNames(parOb)), fmt.Sprint(matchNames(seqOb)); got != want {
					t.Fatalf("mode %d query %d workers %d: obligation matches %s != sequential %s", mi, qi, workers, got, want)
				}
			}
		}
	}
}

// TestFindAny asserts the early-exit mode returns a subset of the full
// match set, non-empty whenever the full set is, under both the
// sequential and the pooled evaluation.
func TestFindAny(t *testing.T) {
	db := parallelTestDB(t, 30, 6)
	queries := parallelTestQueries(t, db, 8, 17)
	sawMatch := false
	for _, q := range queries {
		full, err := db.QueryMode(q, Mode{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]bool)
		for _, c := range full.Matches {
			want[c.Name] = true
		}
		for _, workers := range []int{1, 4} {
			res, err := db.QueryMode(q, Mode{FindAny: true, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Matches) == 0 {
				if len(res.Matches) != 0 {
					t.Fatalf("workers %d: find-any invented a match", workers)
				}
				continue
			}
			sawMatch = true
			if len(res.Matches) == 0 {
				t.Fatalf("workers %d: find-any missed all %d matches", workers, len(full.Matches))
			}
			for _, c := range res.Matches {
				if !want[c.Name] {
					t.Fatalf("workers %d: find-any returned non-match %s", workers, c.Name)
				}
			}
		}
	}
	if !sawMatch {
		t.Fatal("workload produced no matching query; test is vacuous")
	}
}

// TestQueryCanceled asserts a canceled context aborts the evaluation
// with ErrCanceled for both pool widths, without completing the scan.
func TestQueryCanceled(t *testing.T) {
	db := parallelTestDB(t, 20, 8)
	q := parallelTestQueries(t, db, 1, 3)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := db.QueryModeCtx(ctx, q, Mode{Parallelism: workers})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers %d: err = %v, want ErrCanceled", workers, err)
		}
		if res != nil {
			t.Fatalf("workers %d: got a result from a canceled query", workers)
		}
	}
	if got := db.Stats().Queries.Canceled; got != 2 {
		t.Fatalf("canceled counter = %d, want 2", got)
	}
}

// TestQueryStepBudget asserts a starvation budget aborts the query
// with ErrBudgetExceeded instead of running the search to completion.
func TestQueryStepBudget(t *testing.T) {
	db := parallelTestDB(t, 20, 9)
	q := parallelTestQueries(t, db, 1, 5)[0]
	for _, workers := range []int{1, 4} {
		_, err := db.QueryModeCtx(context.Background(), q, Mode{StepBudget: 1, Parallelism: workers})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("workers %d: err = %v, want ErrBudgetExceeded", workers, err)
		}
	}
	// A generous budget completes normally.
	if _, err := db.QueryModeCtx(context.Background(), q, Mode{StepBudget: 1 << 30}); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if got := db.Stats().Queries.BudgetExceeded; got != 2 {
		t.Fatalf("budget-exceeded counter = %d, want 2", got)
	}
}

// TestStatsMetrics sanity-checks the always-on metrics registry
// against a known sequence of evaluations.
func TestStatsMetrics(t *testing.T) {
	db := parallelTestDB(t, 15, 12)
	queries := parallelTestQueries(t, db, 4, 33)
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Queries.Queries != int64(len(queries)) {
		t.Fatalf("Queries = %d, want %d", st.Queries.Queries, len(queries))
	}
	if st.Queries.Translate.Count != int64(len(queries)) {
		t.Fatalf("Translate.Count = %d, want %d", st.Queries.Translate.Count, len(queries))
	}
	if st.Queries.Prefilter.Count != int64(len(queries)) {
		t.Fatalf("Prefilter.Count = %d, want %d", st.Queries.Prefilter.Count, len(queries))
	}
	if st.Queries.CandidatesScanned+st.Queries.CandidatesPruned != int64(len(queries)*db.Len()) {
		t.Fatalf("scanned %d + pruned %d != %d queries × %d contracts",
			st.Queries.CandidatesScanned, st.Queries.CandidatesPruned, len(queries), db.Len())
	}
	if st.Queries.KernelSteps == 0 && st.Queries.CandidatesScanned > 0 {
		t.Fatal("kernel steps not accounted")
	}
	if hits, misses := st.Queries.ProjCacheHits, st.Queries.ProjCacheMisses; hits+misses != st.Queries.CandidatesScanned {
		t.Fatalf("projection cache hits %d + misses %d != checks %d", hits, misses, st.Queries.CandidatesScanned)
	}
	if st.Registration.Contracts != db.Len() {
		t.Fatalf("Registration.Contracts = %d, want %d", st.Registration.Contracts, db.Len())
	}
}
