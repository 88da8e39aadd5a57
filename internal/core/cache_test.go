package core_test

import (
	"fmt"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/paperex"
)

// TestCacheCanonicalSharing: structurally equivalent spellings share
// one compiled automaton, and the shared automaton answers alike.
func TestCacheCanonicalSharing(t *testing.T) {
	db := newPaperDB(t)
	a := ltl.MustParse("F refund && G !dateChange")
	b := ltl.MustParse("G !dateChange && (true U refund)")
	ra, err := db.Query(a)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stats.CompileHit {
		t.Fatal("first evaluation reported a compile-cache hit")
	}
	rb, err := db.Query(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Stats.CompileHit {
		t.Fatal("equivalent spelling was not served from the compile cache")
	}
	if got, want := fmt.Sprint(names(rb)), fmt.Sprint(names(ra)); got != want {
		t.Fatalf("equivalent spellings disagree: %s vs %s", got, want)
	}
	qs := db.Stats().Queries
	if qs.QueryCacheMisses != 1 || qs.QueryCacheHits != 1 {
		t.Fatalf("compile cache misses/hits = %d/%d, want 1/1 (shared compilation)", qs.QueryCacheMisses, qs.QueryCacheHits)
	}
	if caches := db.CacheStats(); caches.QueryCacheLen != 1 {
		t.Fatalf("cache occupancy = %+v, want one shared entry", caches)
	}
}

// TestNoCacheBypass: Mode.NoCache skips the compile cache entirely.
func TestNoCacheBypass(t *testing.T) {
	db := newPaperDB(t)
	q := paperex.QueryQ3()
	mode := core.Optimized
	mode.NoCache = true
	for i := 0; i < 2; i++ {
		res, err := db.QueryMode(q, mode)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CompileHit {
			t.Fatalf("run %d: NoCache evaluation reported a compile-cache hit", i)
		}
	}
	qs := db.Stats().Queries
	if qs.QueryCacheHits != 0 || qs.QueryCacheMisses != 0 {
		t.Fatalf("NoCache touched the compile cache: %+v", qs)
	}
	if caches := db.CacheStats(); caches.QueryCacheLen != 0 {
		t.Fatalf("NoCache populated the compile cache: %+v", caches)
	}
}

// TestCacheDisabled: a negative QueryCacheSize turns the compile cache
// off; the database still answers correctly.
func TestCacheDisabled(t *testing.T) {
	db := core.NewDB(paperex.NewVocabulary(), core.Options{QueryCacheSize: -1})
	if _, err := db.Register("TicketA", paperex.TicketA()); err != nil {
		t.Fatal(err)
	}
	q := ltl.MustParse("F refund")
	for i := 0; i < 2; i++ {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CompileHit {
			t.Fatal("disabled compile cache served a hit")
		}
		if !names(res)["TicketA"] {
			t.Fatalf("run %d: matches %v miss TicketA", i, names(res))
		}
	}
	if caches := db.CacheStats(); caches.QueryCacheCap != 0 {
		t.Fatalf("disabled cache reports capacity: %+v", caches)
	}
}

// TestCachedDifferentialAcrossRegistrations: after every single
// registration, an evaluation through the compile cache must equal a
// from-scratch NoCache evaluation — for permission and obligation
// queries alike. The compiled automata are reused across every
// registration.
func TestCachedDifferentialAcrossRegistrations(t *testing.T) {
	voc := datagen.NewVocabulary()
	db := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	gen := datagen.New(voc, 21)
	var queries []*ltl.Expr
	for len(queries) < 5 {
		queries = append(queries, gen.Specification(2))
	}
	cached := core.Mode{Prefilter: true, Bisim: true}
	uncached := cached
	uncached.NoCache = true
	registered := 0
	for registered < 15 {
		if _, err := db.Register("", gen.Specification(3)); err != nil {
			continue
		}
		registered++
		for qi, q := range queries {
			got, err := db.QueryMode(q, cached)
			if err != nil {
				t.Fatal(err)
			}
			if registered > 1 && !got.Stats.CompileHit {
				t.Fatalf("contract %d query %d: compiled automaton was not reused", registered, qi)
			}
			want, err := db.QueryMode(q, uncached)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprint(names(got)), fmt.Sprint(names(want)); g != w {
				t.Fatalf("contract %d query %d: cached %s != uncached %s", registered, qi, g, w)
			}
			obGot, err := db.QueryObligationMode(q, cached)
			if err != nil {
				t.Fatal(err)
			}
			obWant, err := db.QueryObligationMode(q, uncached)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprint(names(obGot)), fmt.Sprint(names(obWant)); g != w {
				t.Fatalf("contract %d query %d: cached obligation %s != uncached %s", registered, qi, g, w)
			}
		}
	}
}
