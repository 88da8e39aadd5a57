package core_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
)

// TestCacheRegisterStress interleaves registrations with queries that
// go through the compile cache, under -race. Each reader runs the
// cached evaluation and the NoCache oracle back to back; when the
// corpus (its sorted contract names) did not change between the two,
// the answers must be identical. A compiled automaton that differed
// from a fresh translation would show up here as a differential
// failure, and any unsynchronized cache state as a race report.
func TestCacheRegisterStress(t *testing.T) {
	voc := datagen.NewVocabulary()
	db := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	gen := datagen.New(voc, 51)
	for db.Len() < 15 {
		if _, err := db.Register("", gen.Specification(3)); err != nil {
			continue
		}
	}
	var queries []*ltl.Expr
	qgen := datagen.New(voc, 87)
	for len(queries) < 4 {
		queries = append(queries, qgen.Specification(2))
	}

	const (
		readers       = 4
		roundsPerRead = 25
		extraRegs     = 20
	)
	cached := core.Mode{Prefilter: true, Bisim: true}
	uncached := cached
	uncached.NoCache = true

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		g := datagen.New(voc, 99)
		added := 0
		for added < extraRegs {
			if _, err := db.Register("", g.Specification(3)); err != nil {
				continue
			}
			added++
		}
	}()

	comparable := 0
	var mu sync.Mutex
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < roundsPerRead; i++ {
				q := queries[(r+i)%len(queries)]
				before := corpusNames(db)
				got, err := db.QueryMode(q, cached)
				if err != nil {
					errs <- err
					return
				}
				want, err := db.QueryMode(q, uncached)
				if err != nil {
					errs <- err
					return
				}
				if corpusNames(db) != before {
					continue // a registration landed mid-pair; not comparable
				}
				if g, w := fmt.Sprint(names(got)), fmt.Sprint(names(want)); g != w {
					errs <- fmt.Errorf("reader %d round %d: cached %s != uncached %s", r, i, g, w)
					return
				}
				mu.Lock()
				comparable++
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if comparable == 0 {
		t.Fatal("no stable-corpus pairs compared; stress test is vacuous")
	}

	// After the writer drains, every query must settle: cached answers
	// equal the oracle on the final database.
	for _, q := range queries {
		hit, err := db.QueryMode(q, cached)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Stats.CompileHit {
			t.Fatal("post-stress query did not reuse its compiled automaton")
		}
		want, err := db.QueryMode(q, uncached)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(names(hit)), fmt.Sprint(names(want)); g != w {
			t.Fatalf("post-stress: cached %s != uncached %s", g, w)
		}
	}
}

// corpusNames is the database's contract names, sorted and joined: two
// reads that return the same string saw the same corpus.
func corpusNames(db *core.DB) string {
	var ns []string
	for _, c := range db.Contracts() {
		ns = append(ns, c.Name)
	}
	sort.Strings(ns)
	return fmt.Sprint(ns)
}
