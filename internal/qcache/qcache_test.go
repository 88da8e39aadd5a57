package qcache_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/metrics"
	"contractdb/internal/qcache"
	"contractdb/internal/vocab"
)

func translator(voc *vocab.Vocabulary, calls *atomic.Int64) qcache.Translate {
	return func(f *ltl.Expr) (*buchi.BA, error) {
		calls.Add(1)
		return ltl2ba.Translate(voc, f)
	}
}

func TestCompileCacheCanonicalSharing(t *testing.T) {
	voc := vocab.MustFromNames("a", "b")
	var hits, misses metrics.Counter
	c := qcache.NewCompileCache(8, qcache.Metrics{Hits: &hits, Misses: &misses})
	var calls atomic.Int64
	tr := translator(voc, &calls)

	e1 := c.Get(ltl.MustParse("F a && G b"))
	if _, err := e1.Automaton(false, tr); err != nil {
		t.Fatal(err)
	}
	// Commutative reordering and desugared spelling hit the same entry.
	e2 := c.Get(ltl.MustParse("G b && (true U a)"))
	if e1 != e2 {
		t.Fatal("canonically equal queries got distinct entries")
	}
	if _, err := e2.Automaton(false, tr); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("translate calls = %d, want 1", got)
	}
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits.Value(), misses.Value())
	}

	// The negated-obligation automaton is a separate lazily built slot.
	if _, err := e1.Automaton(true, tr); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("translate calls after negated slot = %d, want 2", got)
	}
	if _, err := e1.Automaton(true, tr); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("negated slot retranslated: calls = %d, want 2", got)
	}
}

func TestCompileCacheSingleflight(t *testing.T) {
	voc := vocab.MustFromNames("a", "b", "c")
	c := qcache.NewCompileCache(8, qcache.Metrics{})
	var calls atomic.Int64
	tr := translator(voc, &calls)

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := c.Get(ltl.MustParse("G(a -> F b) && F c"))
			if _, err := e.Automaton(false, tr); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical queries translated %d times, want 1", n, got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

func TestCompileCacheEviction(t *testing.T) {
	var evictions metrics.Counter
	c := qcache.NewCompileCache(2, qcache.Metrics{Evictions: &evictions})
	a := c.Get(ltl.Atom("a"))
	c.Get(ltl.Atom("b"))
	c.Get(ltl.Atom("a")) // refresh a; b is now LRU
	c.Get(ltl.Atom("c")) // evicts b
	if evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", evictions.Value())
	}
	if got := c.Get(ltl.Atom("a")); got != a {
		t.Fatal("recently used entry was evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestCompileCacheErrorNotCached(t *testing.T) {
	c := qcache.NewCompileCache(4, qcache.Metrics{})
	e := c.Get(ltl.Atom("a"))
	fail := errors.New("translator down")
	if _, err := e.Automaton(false, func(*ltl.Expr) (*buchi.BA, error) { return nil, fail }); !errors.Is(err, fail) {
		t.Fatalf("err = %v, want %v", err, fail)
	}
	// The failure must not be pinned: a later successful translation
	// fills the slot.
	voc := vocab.MustFromNames("a")
	var calls atomic.Int64
	if _, err := e.Automaton(false, translator(voc, &calls)); err != nil {
		t.Fatalf("retry after error failed: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatal("retry did not invoke translator")
	}
}
