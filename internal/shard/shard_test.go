package shard_test

import (
	"bytes"
	"sort"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/shard"
	"contractdb/internal/vocab"
)

// buildPair populates an unsharded oracle and a sharded database with
// the same deterministic corpus.
func buildPair(t *testing.T, shards, size, seed int) (*core.DB, *shard.DB) {
	t.Helper()
	opts := core.Options{MaxAutomatonStates: 300}
	cvoc := datagen.NewVocabulary()
	cdb := core.NewDB(cvoc, opts)
	svoc := datagen.NewVocabulary()
	sdb, err := shard.New(svoc, opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	fillBoth(t, cdb, sdb, size, seed)
	return cdb, sdb
}

func fillBoth(t *testing.T, cdb *core.DB, sdb *shard.DB, size, seed int) {
	t.Helper()
	cgen := datagen.New(cdb.Vocabulary(), int64(seed))
	sgen := datagen.New(sdb.Vocabulary(), int64(seed))
	for cdb.Len() < size {
		cspec, sspec := cgen.Specification(2), sgen.Specification(2)
		_, cerr := cdb.Register("", cspec)
		_, serr := sdb.Register("", sspec)
		if (cerr == nil) != (serr == nil) {
			t.Fatalf("registration divergence: oracle err=%v sharded err=%v", cerr, serr)
		}
	}
}

func resultNames(r *core.Result) []string {
	out := make([]string, len(r.Matches))
	for i, c := range r.Matches {
		out[i] = c.Name
	}
	sort.Strings(out)
	return out
}

func TestPlacementStable(t *testing.T) {
	voc := vocab.MustFromNames("a", "b")
	db, err := shard.New(voc, core.Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := shard.New(vocab.MustFromNames("a", "b"), core.Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "contract-17", "x", "a very long contract name"}
	for _, n := range names {
		if got, want := db.ShardFor(n), db2.ShardFor(n); got != want {
			t.Fatalf("placement of %q differs across instances: %d vs %d", n, got, want)
		}
		if got := db.ShardFor(n); got < 0 || got >= 8 {
			t.Fatalf("placement of %q out of range: %d", n, got)
		}
	}
}

func TestNewRejectsZeroShards(t *testing.T) {
	if _, err := shard.New(vocab.MustFromNames("a"), core.Options{}, 0); err == nil {
		t.Fatal("New(.., 0) succeeded; want error")
	}
}

func TestShardingBasics(t *testing.T) {
	_, sdb := buildPair(t, 4, 30, 11)

	if got := sdb.Len(); got != 30 {
		t.Fatalf("Len = %d, want 30", got)
	}
	sizes := sdb.ShardSizes()
	sum, populated := 0, 0
	for _, n := range sizes {
		sum += n
		if n > 0 {
			populated++
		}
	}
	if sum != 30 {
		t.Fatalf("shard sizes sum to %d, want 30", sum)
	}
	if populated < 2 {
		t.Fatalf("only %d of 4 shards populated; placement is degenerate", populated)
	}

	// Every contract is on the shard the hash says, and ByName finds it.
	for _, c := range sdb.Contracts() {
		if _, ok := sdb.ByName(c.Name); !ok {
			t.Fatalf("ByName(%q) missed", c.Name)
		}
		sh := sdb.Shard(sdb.ShardFor(c.Name))
		if _, ok := sh.ByName(c.Name); !ok {
			t.Fatalf("contract %q not on its hash shard", c.Name)
		}
	}

	// Contracts() is name-sorted.
	cs := sdb.Contracts()
	if !sort.SliceIsSorted(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name }) {
		t.Fatal("Contracts() not sorted by name")
	}
}

// TestOnlyRouterCompileCache: the router translates every query
// through its own compile cache, so the shards are built without one,
// while the options Save records keep the configured cache size.
func TestOnlyRouterCompileCache(t *testing.T) {
	db, err := shard.New(datagen.NewVocabulary(), core.Options{QueryCacheSize: 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"F p1", "G(p2 -> F p3)"} {
		if _, err := db.QueryLTL(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.CacheStats(); got.QueryCacheLen != 2 || got.QueryCacheCap != 64 {
		t.Errorf("router cache = %+v, want 2 entries of 64", got)
	}
	for i := range db.NumShards() {
		if got := db.Shard(i).CacheStats(); got != (core.CacheStats{}) {
			t.Errorf("shard %d has a compile cache: %+v", i, got)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := core.PeekV4(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Opts.QueryCacheSize != 64 {
		t.Errorf("saved QueryCacheSize = %d, want 64", info.Opts.QueryCacheSize)
	}
}

// TestAutoNameMatchesUnsharded pins the property the differential
// harness depends on: anonymous registrations mint the same
// "contract-N" sequence whether or not the corpus is sharded.
func TestAutoNameMatchesUnsharded(t *testing.T) {
	cdb, sdb := buildPair(t, 4, 25, 7)
	cnames := make(map[string]bool)
	for _, c := range cdb.Contracts() {
		cnames[c.Name] = true
	}
	for _, c := range sdb.Contracts() {
		if !cnames[c.Name] {
			t.Fatalf("sharded minted %q, oracle did not", c.Name)
		}
		delete(cnames, c.Name)
	}
	for n := range cnames {
		t.Fatalf("oracle minted %q, sharded did not", n)
	}
}

// TestUnregisterRoutesAndInvalidates: an unregister touches only the
// owning shard, and a query whose automaton the router's compile cache
// already holds stops returning the removed contract.
func TestUnregisterRoutesAndInvalidates(t *testing.T) {
	_, sdb := buildPair(t, 4, 20, 13)
	victim := sdb.Contracts()[0].Name

	// Compile the query before the unregister.
	q, err := ltl.Parse("F p1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.Query(q); err != nil {
		t.Fatal(err)
	}

	sizes := sdb.ShardSizes()
	if err := sdb.Unregister(victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := sdb.ByName(victim); ok {
		t.Fatalf("contract %q still present after Unregister", victim)
	}
	after := sdb.ShardSizes()
	for i := range sizes {
		want := sizes[i]
		if i == sdb.ShardFor(victim) {
			want--
		}
		if after[i] != want {
			t.Fatalf("unregister of %q left shard %d with %d contracts, want %d (owner is %d)", victim, i, after[i], want, sdb.ShardFor(victim))
		}
	}

	if err := sdb.Unregister("no-such-contract"); err == nil {
		t.Fatal("unregister of unknown name succeeded")
	} else if got := sdb.Len(); got != 19 {
		t.Fatalf("Len = %d after failed unregister, want 19", got)
	}

	// Post-unregister queries still agree with a fresh full evaluation.
	cached, err := sdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Stats.CompileHit {
		t.Fatal("repeat query did not reuse the compiled automaton")
	}
	for _, n := range resultNames(cached) {
		if n == victim {
			t.Fatalf("removed contract %q still matched", victim)
		}
	}
	uncached, err := sdb.QueryMode(q, core.Mode{Prefilter: true, Bisim: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	g, w := resultNames(cached), resultNames(uncached)
	if len(g) != len(w) {
		t.Fatalf("cached %v != uncached %v after unregister", g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("cached %v != uncached %v after unregister", g, w)
		}
	}
}

// TestStatsComposition checks the router/shard metrics split: queries
// are counted once at the router, work counters accrue on shards, and
// the merged view double-counts neither.
func TestStatsComposition(t *testing.T) {
	_, sdb := buildPair(t, 4, 20, 17)
	q, err := ltl.Parse("F p1")
	if err != nil {
		t.Fatal(err)
	}
	mode := core.Mode{Prefilter: true, Bisim: true, NoCache: true}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if _, err := sdb.QueryMode(q, mode); err != nil {
			t.Fatal(err)
		}
	}
	st := sdb.Stats()
	if st.Queries.Queries != rounds {
		t.Fatalf("merged Queries = %d, want %d (per-shard probes must not count)", st.Queries.Queries, rounds)
	}
	if st.Queries.CandidatesScanned == 0 {
		t.Fatal("merged view lost the shards' work counters")
	}
	rs := sdb.RouterSnapshot()
	if want := int64(rounds * sdb.NumShards()); rs.Probes != want {
		t.Fatalf("router probes = %d, want %d", rs.Probes, want)
	}
	if st.Registration.Contracts != 20 {
		t.Fatalf("merged registration stats report %d contracts, want 20", st.Registration.Contracts)
	}
}
