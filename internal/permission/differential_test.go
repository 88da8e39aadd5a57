package permission_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"contractdb/internal/buchi"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/permission"
	"contractdb/internal/vocab"
)

// diffWorkload draws a seeded Dwyer-pattern workload: nContracts
// checkers and nQueries query automata over the evaluation vocabulary.
func diffWorkload(t *testing.T, seed int64, nContracts, nQueries int) ([]*buchi.BA, []*buchi.BA) {
	t.Helper()
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, seed)
	var contracts []*buchi.BA
	for len(contracts) < nContracts {
		a, err := ltl2ba.TranslateBounded(context.Background(), voc, gen.Specification(3), 200)
		if err != nil || a.IsEmpty() {
			continue // oversized or unsatisfiable: redraw
		}
		contracts = append(contracts, a)
	}
	var queries []*buchi.BA
	for len(queries) < nQueries {
		qa, err := ltl2ba.Translate(voc, gen.Specification(2))
		if err != nil {
			t.Fatal(err)
		}
		if qa.IsEmpty() {
			continue
		}
		queries = append(queries, qa)
	}
	return contracts, queries
}

// randomBA draws an automaton of n states whose labels cite only the
// events in evs. Every state gets 1–3 targets; with fanLabels each
// target is reached under up to three random labels, so a state can
// have several edges to the same target. About one state in eight is
// final.
func randomBA(rng *rand.Rand, n int, evs vocab.Set, fanLabels bool) *buchi.BA {
	a := buchi.NewBuilder(n)
	label := func() buchi.Label {
		var l buchi.Label
		evs.ForEach(func(e vocab.EventID) bool {
			switch rng.Intn(6) {
			case 0:
				l.Pos = l.Pos.With(e)
			case 1:
				l.Neg = l.Neg.With(e)
			}
			return true
		})
		return l
	}
	for s := 0; s < n; s++ {
		a.Final[s] = rng.Intn(8) == 0
		for k := 1 + rng.Intn(3); k > 0; k-- {
			to := buchi.StateID(rng.Intn(n))
			labels := 1
			if fanLabels {
				labels += rng.Intn(3)
			}
			for ; labels > 0; labels-- {
				a.AddEdge(buchi.StateID(s), label(), to)
			}
		}
	}
	a.Events = evs
	return a.BA()
}

// wideWorkload draws random contracts with several labels per target
// and query automata of 65–200 states, so target rows and pair
// sets span W ≥ 2 words. Queries also cite one event outside the
// contract vocabulary, whose edges no contract permits.
func wideWorkload(seed int64, nContracts, nQueries int) ([]*buchi.BA, []*buchi.BA) {
	rng := rand.New(rand.NewSource(seed))
	contractEvents := vocab.Set(0b0111)
	var contracts, queries []*buchi.BA
	for len(contracts) < nContracts {
		contracts = append(contracts, randomBA(rng, 4+rng.Intn(20), contractEvents, true))
	}
	for len(queries) < nQueries {
		queries = append(queries, randomBA(rng, 65+rng.Intn(136), contractEvents.With(3), false))
	}
	return contracts, queries
}

// TestKernelDifferential is a three-way differential: on seeded random
// workloads the independent oracle (product intersection + emptiness),
// the interpreted reference kernels (Tarjan SCC, Algorithm 2 with and
// without seeds) and the production kernels (on-the-fly SCC,
// Algorithm 2) must all return the same verdict for every (contract,
// query) pair, as must the budget-instrumented PermitsCtx path. The
// Dwyer-pattern workloads come from the query generator; the wide
// ones add query automata of more than 64 states and contract states
// with several labels to one target.
func TestKernelDifferential(t *testing.T) {
	type workload struct {
		name               string
		contracts, queries []*buchi.BA
	}
	var workloads []workload
	for _, seed := range []int64{1, 42, 1234} {
		contracts, queries := diffWorkload(t, seed, 10, 8)
		workloads = append(workloads, workload{fmt.Sprintf("dwyer seed %d", seed), contracts, queries})
	}
	for _, seed := range []int64{3, 6, 77} {
		contracts, queries := wideWorkload(seed, 8, 6)
		workloads = append(workloads, workload{fmt.Sprintf("wide seed %d", seed), contracts, queries})
	}
	for _, w := range workloads {
		permitted, total := 0, 0
		for ci, ca := range w.contracts {
			ch := permission.NewChecker(ca)
			noSeeds := permission.NewChecker(ca, permission.WithoutSeeds())
			for qi, qa := range w.queries {
				want := oracle(ca, qa)
				scc, _ := ch.PermitsAlgo(qa, permission.SCC)
				nested, _ := ch.PermitsAlgo(qa, permission.NestedDFS)
				iscc, _ := ch.PermitsInterpreted(qa, permission.SCC)
				inested, _ := ch.PermitsInterpreted(qa, permission.NestedDFS)
				nestedNoSeeds, _ := noSeeds.PermitsInterpreted(qa, permission.NestedDFS)
				if scc != want || nested != want || iscc != want || inested != want || nestedNoSeeds != want {
					t.Fatalf("%s contract %d query %d: verdicts diverge from oracle %v: compiled scc=%v nested=%v, interpreted scc=%v nested=%v nested-no-seeds=%v",
						w.name, ci, qi, want, scc, nested, iscc, inested, nestedNoSeeds)
				}
				total++
				if want {
					permitted++
				}
				// A generous budget must not change the verdict, and a
				// completed search reports no error.
				for _, algo := range []permission.Algorithm{permission.SCC, permission.NestedDFS} {
					ok, st, err := ch.PermitsCtx(context.Background(), qa, algo, 1<<30)
					if err != nil {
						t.Fatalf("%s contract %d query %d algo %d: unexpected error %v", w.name, ci, qi, algo, err)
					}
					if ok != scc {
						t.Fatalf("%s contract %d query %d algo %d: budgeted verdict %v != %v", w.name, ci, qi, algo, ok, scc)
					}
					if st.Steps == 0 {
						t.Fatalf("%s contract %d query %d algo %d: completed search reports zero steps", w.name, ci, qi, algo)
					}
				}
			}
		}
		t.Logf("%s: %d of %d permitted", w.name, permitted, total)
		if permitted == 0 || permitted == total {
			t.Fatalf("%s: %d of %d pairs permitted; the workload must exercise both verdicts", w.name, permitted, total)
		}
	}
}

// TestKernelEarlyExit pins the SCC kernel's on-the-fly answer: the
// contract's accepting cycle 0 → 1 → 0 closes on the second expansion,
// while state 1 also leads into a tail of tailLen states. Tarjan (the
// interpreted reference) must finish the tail before the accepting
// component is complete; the production kernel must answer at the
// closing edge.
func TestKernelEarlyExit(t *testing.T) {
	const tailLen = 1000
	cb := buchi.NewBuilder(2 + tailLen)
	cb.SetFinal(0)
	cb.AddEdge(0, buchi.True, 1)
	cb.AddEdge(1, buchi.True, 0)
	for s := 1; s <= tailLen; s++ {
		cb.AddEdge(buchi.StateID(s), buchi.True, buchi.StateID(s+1))
	}
	contract := cb.BA()
	qb := buchi.NewBuilder(1)
	qb.SetFinal(0)
	qb.AddEdge(0, buchi.True, 0)
	query := qb.BA()

	ch := permission.NewChecker(contract)
	ok, st, err := ch.PermitsCtx(context.Background(), query, permission.SCC, 0)
	if err != nil || !ok {
		t.Fatalf("PermitsCtx = %v, %v; want permitted", ok, err)
	}
	if st.Steps > 10 {
		t.Fatalf("SCC kernel took %d steps; the accepting cycle closes at step 2, before a %d-state tail", st.Steps, tailLen)
	}
	okRef, ref := ch.PermitsInterpreted(query, permission.SCC)
	if !okRef || ref.Steps < tailLen {
		t.Fatalf("reference Tarjan: permitted=%v after %d steps; want the whole %d-state tail expanded", okRef, ref.Steps, tailLen)
	}
	// A budget that covers the cycle but not the tail still answers.
	if ok, _, err := ch.PermitsCtx(context.Background(), query, permission.SCC, 10); err != nil || !ok {
		t.Fatalf("budget 10: PermitsCtx = %v, %v; want permitted", ok, err)
	}
}

// TestCheckerSharedStress hammers one shared Checker from a pool of
// workers, mixing algorithms and kernels, to prove the pooled scratch
// arenas are race-free (run with -race) and that concurrent reuse
// never corrupts a verdict.
func TestCheckerSharedStress(t *testing.T) {
	contracts, queries := diffWorkload(t, 99, 4, 6)
	for _, ca := range contracts {
		ch := permission.NewChecker(ca)
		want := make([]bool, len(queries))
		for i, qa := range queries {
			want[i] = oracle(ca, qa)
		}
		const workers = 8
		const rounds = 40
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					qi := (w + r) % len(queries)
					algo := permission.SCC
					if (w+r)%2 == 1 {
						algo = permission.NestedDFS
					}
					var got bool
					if r%3 == 0 {
						got, _ = ch.PermitsInterpreted(queries[qi], algo)
					} else {
						got, _ = ch.PermitsAlgo(queries[qi], algo)
					}
					if got != want[qi] {
						select {
						case errs <- fmt.Errorf("worker %d round %d query %d algo %d: got %v want %v", w, r, qi, algo, got, want[qi]):
						default:
						}
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPermitsCtxCanceled verifies an already-canceled context aborts
// before any expansion, for both kernels.
func TestPermitsCtxCanceled(t *testing.T) {
	contracts, queries := diffWorkload(t, 7, 1, 1)
	ch := permission.NewChecker(contracts[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []permission.Algorithm{permission.SCC, permission.NestedDFS} {
		_, st, err := ch.PermitsCtx(ctx, queries[0], algo, 0)
		if !errors.Is(err, permission.ErrCanceled) {
			t.Fatalf("algo %d: err = %v, want ErrCanceled", algo, err)
		}
		if st.Steps != 0 {
			t.Fatalf("algo %d: canceled-before-start search did %d steps", algo, st.Steps)
		}
	}
}

// TestPermitsCtxBudget verifies a tiny step budget aborts the search
// mid-expansion with ErrBudgetExceeded and that the consumed steps
// respect the cap.
func TestPermitsCtxBudget(t *testing.T) {
	contracts, queries := diffWorkload(t, 11, 6, 6)
	for _, algo := range []permission.Algorithm{permission.SCC, permission.NestedDFS} {
		aborted := false
		for _, ca := range contracts {
			ch := permission.NewChecker(ca)
			for _, qa := range queries {
				// Establish the unbounded cost, then rerun with a budget
				// strictly below it.
				_, full, err := ch.PermitsCtx(nil, qa, algo, 0)
				if err != nil {
					t.Fatal(err)
				}
				if full.Steps < 2 {
					continue // trivial product: nothing to interrupt
				}
				budget := full.Steps / 2
				_, st, err := ch.PermitsCtx(nil, qa, algo, budget)
				if !errors.Is(err, permission.ErrBudgetExceeded) {
					t.Fatalf("algo %d: err = %v, want ErrBudgetExceeded", algo, err)
				}
				if st.Steps > budget+1 {
					t.Fatalf("algo %d: %d steps consumed under budget %d", algo, st.Steps, budget)
				}
				aborted = true
			}
		}
		if !aborted {
			t.Fatalf("algo %d: no search was interrupted; workload too trivial", algo)
		}
	}
}
