package core_test

import (
	"fmt"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/paperex"
)

// TestResultCacheHit: an identical repeat query is served from the
// result cache — flagged as a hit, identical matches, counters moved.
func TestResultCacheHit(t *testing.T) {
	db := newPaperDB(t)
	q := paperex.QueryMissedRefundOrChange()
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHit {
		t.Fatal("first evaluation reported a cache hit")
	}
	second, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit {
		t.Fatal("repeat evaluation was not served from the result cache")
	}
	if got, want := fmt.Sprint(names(second)), fmt.Sprint(names(first)); got != want {
		t.Fatalf("cached matches %s != original %s", got, want)
	}
	// Hits hand out fresh slices: clobbering one must not corrupt the
	// cached entry.
	for i := range second.Matches {
		second.Matches[i] = nil
	}
	third, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(names(third)), fmt.Sprint(names(first)); got != want {
		t.Fatalf("cached entry corrupted by caller mutation: %s != %s", got, want)
	}
	qs := db.Stats().Queries
	if qs.ResultCacheHits != 2 || qs.ResultCacheMisses != 1 {
		t.Fatalf("result cache hits/misses = %d/%d, want 2/1", qs.ResultCacheHits, qs.ResultCacheMisses)
	}
	if qs.CachedServe.Count != 2 {
		t.Fatalf("cached-serve observations = %d, want 2", qs.CachedServe.Count)
	}
}

// TestCacheCanonicalSharing: structurally equivalent spellings share
// one compiled automaton and one cached result.
func TestCacheCanonicalSharing(t *testing.T) {
	db := newPaperDB(t)
	a := ltl.MustParse("F refund && G !dateChange")
	b := ltl.MustParse("G !dateChange && (true U refund)")
	ra, err := db.Query(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := db.Query(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Stats.CacheHit {
		t.Fatal("equivalent spelling was not served from the result cache")
	}
	if got, want := fmt.Sprint(names(rb)), fmt.Sprint(names(ra)); got != want {
		t.Fatalf("equivalent spellings disagree: %s vs %s", got, want)
	}
	qs := db.Stats().Queries
	if qs.QueryCacheMisses != 1 || qs.QueryCacheHits != 1 {
		t.Fatalf("compile cache misses/hits = %d/%d, want 1/1 (shared compilation)", qs.QueryCacheMisses, qs.QueryCacheHits)
	}
	if caches := db.CacheStats(); caches.QueryCacheLen != 1 || caches.ResultCacheLen != 1 {
		t.Fatalf("cache occupancy = %+v, want one shared entry per tier", caches)
	}
}

// TestCacheEpochInvalidation: a registration bumps the epoch, so the
// next lookup re-evaluates and sees the new contract.
func TestCacheEpochInvalidation(t *testing.T) {
	db := newPaperDB(t)
	q := ltl.MustParse("F refund")
	before, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	epoch := db.Epoch()
	// TicketA permits refunds after a missed flight, so this permissive
	// contract joins the match set.
	if _, err := db.RegisterLTL("AnythingGoes", "G(refund || !refund)"); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() == epoch {
		t.Fatal("registration did not bump the epoch")
	}
	after, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.CacheHit {
		t.Fatal("stale result served across a registration")
	}
	if !names(after)["AnythingGoes"] {
		t.Fatalf("post-registration matches %v miss the new contract", names(after))
	}
	if len(after.Matches) != len(before.Matches)+1 {
		t.Fatalf("matches went %d -> %d, want +1", len(before.Matches), len(after.Matches))
	}
	if got := db.Stats().Queries.ResultCacheInvalidation; got != 1 {
		t.Fatalf("invalidations = %d, want 1 (stale entry dropped at lookup)", got)
	}
}

// TestCacheKeySeparation: permission vs. obligation, FindAny, and
// differing mode knobs must never share a result entry.
func TestCacheKeySeparation(t *testing.T) {
	db := newPaperDB(t)
	q := ltl.MustParse("F refund")
	perm, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := db.QueryObligation(q)
	if err != nil {
		t.Fatal(err)
	}
	if ob.Stats.CacheHit {
		t.Fatal("obligation query served the permission query's cached result")
	}
	if fmt.Sprint(names(ob)) == fmt.Sprint(names(perm)) && len(perm.Matches) != 0 {
		// Permission and obligation answers differ on the paper DB for
		// this query; equality would mean key collision.
		t.Fatalf("obligation matches %v identical to permission matches", names(ob))
	}
	fa, err := db.QueryMode(q, core.Mode{Prefilter: true, Bisim: true, FindAny: true})
	if err != nil {
		t.Fatal(err)
	}
	if fa.Stats.CacheHit {
		t.Fatal("find-any served the find-all cached result")
	}
	if len(fa.Matches) > 1 {
		t.Fatalf("find-any returned %d matches", len(fa.Matches))
	}
	// The same knobs again do hit their own entries.
	if r, _ := db.QueryObligation(q); r == nil || !r.Stats.CacheHit {
		t.Fatal("obligation repeat missed its own cache entry")
	}
}

// TestNoCacheBypass: Mode.NoCache skips both tiers entirely.
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
		if res.Stats.CacheHit {
			t.Fatalf("run %d: NoCache evaluation reported a cache hit", i)
		}
	}
	qs := db.Stats().Queries
	if qs.ResultCacheHits != 0 || qs.ResultCacheMisses != 0 || qs.QueryCacheHits != 0 {
		t.Fatalf("NoCache touched the caches: %+v", qs)
	}
	if caches := db.CacheStats(); caches.ResultCacheLen != 0 || caches.QueryCacheLen != 0 {
		t.Fatalf("NoCache populated the caches: %+v", caches)
	}
}

// TestCacheDisabled: negative Options sizes turn the tiers off; the
// database still answers correctly.
func TestCacheDisabled(t *testing.T) {
	db := core.NewDB(paperex.NewVocabulary(), core.Options{QueryCacheSize: -1, ResultCacheSize: -1})
	if _, err := db.Register("TicketA", paperex.TicketA()); err != nil {
		t.Fatal(err)
	}
	q := ltl.MustParse("F refund")
	for i := 0; i < 2; i++ {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CacheHit {
			t.Fatal("disabled cache served a hit")
		}
	}
	caches := db.CacheStats()
	if caches.QueryCacheCap != 0 || caches.ResultCacheCap != 0 {
		t.Fatalf("disabled caches report capacity: %+v", caches)
	}
	// Resizing re-enables them.
	db.SetCacheSizes(8, 8)
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Fatal("resized cache did not serve the repeat")
	}
}

// TestCachedDifferentialAcrossRegistrations is the correctness
// acceptance test for the cache design: after every single
// registration, the cached answer to every workload query must equal
// a from-scratch NoCache evaluation — for permission and obligation
// queries alike.
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
			// Prime (or re-prime) the cache, then compare against the
			// uncached oracle.
			if _, err := db.QueryMode(q, cached); err != nil {
				t.Fatal(err)
			}
			hit, err := db.QueryMode(q, cached)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Stats.CacheHit {
				t.Fatalf("contract %d query %d: repeat was not a cache hit", registered, qi)
			}
			want, err := db.QueryMode(q, uncached)
			if err != nil {
				t.Fatal(err)
			}
			if got, exp := fmt.Sprint(names(hit)), fmt.Sprint(names(want)); got != exp {
				t.Fatalf("contract %d query %d: cached %s != uncached %s", registered, qi, got, exp)
			}
			obHit, err := db.QueryObligationMode(q, cached)
			if err != nil {
				t.Fatal(err)
			}
			obWant, err := db.QueryObligationMode(q, uncached)
			if err != nil {
				t.Fatal(err)
			}
			if got, exp := fmt.Sprint(names(obHit)), fmt.Sprint(names(obWant)); got != exp {
				t.Fatalf("contract %d query %d: cached obligation %s != uncached %s", registered, qi, got, exp)
			}
		}
	}
}
