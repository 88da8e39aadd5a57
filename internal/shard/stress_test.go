package shard_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/shard"
)

// TestShardStress interleaves registrations, unregistrations and
// queries across shards under -race: each reader runs a scatter
// through the router's compile cache and the NoCache oracle back to
// back, and when the corpus (its sorted contract names) did not change
// between the two the answers must be identical. A scatter that missed
// or duplicated a contract would surface as a differential failure;
// unsynchronized router or vocabulary state as a race report.
func TestShardStress(t *testing.T) {
	voc := datagen.NewVocabulary()
	sdb, err := shard.New(voc, core.Options{MaxAutomatonStates: 300}, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.New(voc, 51)
	for sdb.Len() < 20 {
		if _, err := sdb.Register("", gen.Specification(3)); err != nil {
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
		roundsPerRead = 20
		extraRegs     = 15
		churnRemoves  = 8
	)
	cached := core.Mode{Prefilter: true, Bisim: true}
	uncached := cached
	uncached.NoCache = true

	var wg sync.WaitGroup
	errs := make(chan error, readers+2)

	// Writer 1: registrations landing on whichever shard the generated
	// name hashes to.
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := datagen.New(voc, 99)
		added := 0
		for added < extraRegs {
			if _, err := sdb.Register("", g.Specification(3)); err != nil {
				continue
			}
			added++
		}
	}()

	// Writer 2: unregistrations — the expensive write (each rebuilds
	// its shard's prefilter index under that shard's write lock).
	wg.Add(1)
	go func() {
		defer wg.Done()
		removed := 0
		for removed < churnRemoves {
			cs := sdb.Contracts()
			if len(cs) <= 10 {
				time.Sleep(time.Millisecond)
				continue
			}
			if err := sdb.Unregister(cs[removed%len(cs)].Name); err == nil {
				removed++
			}
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
				before := corpusNames(sdb)
				got, err := sdb.QueryMode(q, cached)
				if err != nil {
					errs <- err
					return
				}
				want, err := sdb.QueryMode(q, uncached)
				if err != nil {
					errs <- err
					return
				}
				if corpusNames(sdb) != before {
					continue // a mutation landed mid-pair; not comparable
				}
				if g, w := fmt.Sprint(resultNames(got)), fmt.Sprint(resultNames(want)); g != w {
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

	// After the writers drain, every query must settle: cached scatters
	// equal the oracle on the final corpus.
	for _, q := range queries {
		hit, err := sdb.QueryMode(q, cached)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Stats.CompileHit {
			t.Fatal("post-stress query did not reuse its compiled automaton")
		}
		want, err := sdb.QueryMode(q, uncached)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(resultNames(hit)), fmt.Sprint(resultNames(want)); g != w {
			t.Fatalf("post-stress: cached %s != uncached %s", g, w)
		}
	}
}

// corpusNames is the router's contract names in Contracts' name order,
// joined: two reads that return the same string saw the same corpus.
func corpusNames(sdb *shard.DB) string {
	var ns []string
	for _, c := range sdb.Contracts() {
		ns = append(ns, c.Name)
	}
	return fmt.Sprint(ns)
}

// TestFindAnyCancelsProbes proves the FindAny early exit leaves no
// goroutines behind: the scatter waits for every probe (losing probes
// observe the broadcast cancellation and drain), so after a burst of
// FindAny queries — concurrent with registrations, to keep the shards
// busy — the goroutine count returns to its baseline.
func TestFindAnyCancelsProbes(t *testing.T) {
	voc := datagen.NewVocabulary()
	sdb, err := shard.New(voc, core.Options{MaxAutomatonStates: 300}, 8)
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.New(voc, 61)
	for sdb.Len() < 40 {
		if _, err := sdb.Register("", gen.Specification(2)); err != nil {
			continue
		}
	}
	var queries []*ltl.Expr
	qgen := datagen.New(voc, 71)
	for len(queries) < 4 {
		queries = append(queries, qgen.Specification(2))
	}
	mode := core.Mode{Prefilter: true, Bisim: true, FindAny: true, NoCache: true}

	runtime.GC()
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := datagen.New(voc, 81)
		for added := 0; added < 10; {
			if _, err := sdb.Register("", g.Specification(2)); err != nil {
				continue
			}
			added++
		}
	}()
	witnessed := false
	for i := 0; i < 50; i++ {
		res, err := sdb.QueryMode(queries[i%len(queries)], mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) > 0 {
			witnessed = true
		}
	}
	wg.Wait()
	if !witnessed {
		t.Fatal("no FindAny query produced a witness; the early-exit path never ran")
	}
	if got := sdb.RouterSnapshot().EarlyExits; got == 0 {
		t.Fatal("router recorded no early exits; cancellation broadcast never fired")
	}

	// Probes are joined before the scatter returns, so any residue is a
	// leak. Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
