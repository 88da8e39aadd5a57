// Package shard partitions a contract corpus across N in-process
// core.DB shards behind a scatter-gather router.
//
// Placement hashes the contract name (FNV-1a), so a contract's shard
// is a pure function of its name and the shard count — nothing about
// placement is persisted, and the same corpus can be reloaded under a
// different shard count (see persist.go). Each shard owns its own
// prefilter index, bisimulation projections and — crucially — its own
// sync.RWMutex, so a registration or unregistration write-locks 1/N of the corpus while
// the other shards keep serving queries. All shards share one
// thread-safe vocabulary: automaton labels are bitsets over vocabulary
// ids, which is what lets the router translate a query once, through
// its one compile cache, and fan the compiled automaton out to every
// shard (core.DB.EvalCompiled).
//
// Queries scatter to one goroutine per shard, each evaluating against
// its shard's candidate set on the shard DB's own worker pool (sized
// so the total worker count is independent of the shard count).
// FindAll results merge deterministically by contract name; FindAny
// broadcasts cancellation to the outstanding probes as soon as any
// shard produces a witness.
package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"

	"contractdb/internal/core"
	"contractdb/internal/ltl"
	"contractdb/internal/metrics"
	"contractdb/internal/qcache"
	"contractdb/internal/vocab"
)

// DB is a sharded contract database: the scatter-gather router plus
// its shards. All methods are safe for concurrent use. It mirrors the
// query/registration surface of core.DB, and it is the engine the
// store and server layers serve at every shard count.
type DB struct {
	voc    *vocab.Vocabulary
	opts   core.Options // as configured; shards run with adjusted Parallelism
	shards []*core.DB

	// metrics holds router-level outcomes (queries started, errors,
	// translation latency, compile-cache traffic); each shard's registry
	// accrues the work that shard performed. Stats() overlays the two.
	metrics *metrics.Query
	router  *metrics.ShardRouter

	// compile is the router's compile cache (nil when disabled): one
	// translation serves all shards. Set once by New.
	compile *qcache.CompileCache

	// mu guards opts and autoname, the global generated-name counter.
	// Minting must be centralized: per-shard counters would hand the
	// same "contract-N" to two shards.
	mu       sync.Mutex
	autoname int
}

// New returns an empty sharded database with n shards over the given
// vocabulary. Options apply to every shard, except Parallelism: the
// configured (or GOMAXPROCS) worker budget is divided across shards —
// ceil(P/n) workers per shard — so the total evaluation width does not
// grow with the shard count.
func New(voc *vocab.Vocabulary, opts core.Options, n int) (*DB, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	db := &DB{
		voc:     voc,
		opts:    opts,
		shards:  make([]*core.DB, n),
		metrics: &metrics.Query{},
		router:  &metrics.ShardRouter{},
	}
	shardOpts := opts
	shardOpts.Parallelism = perShardParallelism(opts.Parallelism, n)
	// The router translates each query once, through its own compile
	// cache, and hands shards the automaton: a shard's cache would
	// never be consulted. db.opts, which Save records, keeps the
	// configured size.
	shardOpts.QueryCacheSize = -1
	for i := range db.shards {
		db.shards[i] = core.NewDB(voc, shardOpts)
	}
	db.compile = core.NewCompileCache(opts, db.metrics)
	return db, nil
}

// perShardParallelism divides the configured worker budget (p, with
// <=0 meaning GOMAXPROCS) across n shards, at least one per shard.
func perShardParallelism(p, n int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return max(1, (p+n-1)/n)
}

// NumShards returns the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// Vocabulary returns the shared event vocabulary.
func (db *DB) Vocabulary() *vocab.Vocabulary { return db.voc }

// Shard returns the i'th shard's database. Exposed for tests and the
// store layer's recovery path; production callers go through the
// router methods.
func (db *DB) Shard(i int) *core.DB { return db.shards[i] }

// ShardFor returns the index of the shard that owns (or would own) the
// named contract. Placement is FNV-1a over the name modulo the shard
// count — stable across processes and restarts.
func (db *DB) ShardFor(name string) int {
	return shardIndex(name, len(db.shards))
}

func shardIndex(name string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() % uint64(n))
}

func (db *DB) shardFor(name string) *core.DB {
	return db.shards[shardIndex(name, len(db.shards))]
}

// Register translates and indexes a contract on its owning shard,
// write-locking only that shard. An empty name gets a generated one
// (minted globally, so the sequence matches an unsharded database's).
func (db *DB) Register(name string, spec *ltl.Expr) (*core.Contract, error) {
	return db.register(context.Background(), name, spec)
}

func (db *DB) register(ctx context.Context, name string, spec *ltl.Expr) (*core.Contract, error) {
	if name == "" {
		name = db.nextAutoName()
	}
	return db.shardFor(name).RegisterCtx(ctx, name, spec)
}

// RegisterLTL parses src and registers it.
func (db *DB) RegisterLTL(name, src string) (*core.Contract, error) {
	return db.RegisterLTLCtx(context.Background(), name, src)
}

// RegisterLTLCtx is RegisterLTL under the request context the HTTP
// server passes: a translation still running when ctx is done fails
// with core.ErrCanceled.
func (db *DB) RegisterLTLCtx(ctx context.Context, name, src string) (*core.Contract, error) {
	spec, err := ltl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: contract %q: %w", name, err)
	}
	return db.register(ctx, name, spec)
}

// nextAutoName mints an unused generated name. The counter only moves
// forward (an unregister can never make a generated name collide), and
// the existence probe spans all shards.
func (db *DB) nextAutoName() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		name := fmt.Sprintf("contract-%d", db.autoname)
		db.autoname++
		if _, dup := db.shardFor(name).ByName(name); !dup {
			return name
		}
	}
}

// RegisterBatch registers many contracts, dealing each to its owning
// shard and running the per-shard batches concurrently. Worker
// semantics match core.DB.RegisterBatch (≤ 0 selects GOMAXPROCS), with
// the budget divided across shards. Results come back in input order;
// entries with empty names get globally minted ones first, so the
// generated-name sequence matches an unsharded batch.
func (db *DB) RegisterBatch(ctx context.Context, specs []core.Registration, workers int) []core.BatchResult {
	named := make([]core.Registration, len(specs))
	copy(named, specs)
	for i := range named {
		if named[i].Name == "" {
			named[i].Name = db.nextAutoName()
		}
	}
	groups := make([][]int, len(db.shards))
	for i, r := range named {
		s := shardIndex(r.Name, len(db.shards))
		groups[s] = append(groups[s], i)
	}
	per := perShardParallelism(workers, len(db.shards))
	out := make([]core.BatchResult, len(specs))
	var wg sync.WaitGroup
	for s, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			batch := make([]core.Registration, len(idxs))
			for j, i := range idxs {
				batch[j] = named[i]
			}
			res := db.shards[s].RegisterBatch(ctx, batch, per)
			for j, i := range idxs {
				out[i] = res[j]
			}
		}(s, idxs)
	}
	wg.Wait()
	return out
}

// Unregister removes the named contract from its owning shard; only
// that shard's prefilter index changes. Unknown names report core.ErrNotFound.
func (db *DB) Unregister(name string) error {
	return db.shardFor(name).Unregister(name)
}

// Len returns the number of registered contracts across all shards.
func (db *DB) Len() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.Len()
	}
	return n
}

// ShardSizes returns the number of contracts resident on each shard.
func (db *DB) ShardSizes() []int {
	out := make([]int, len(db.shards))
	for i, sh := range db.shards {
		out[i] = sh.Len()
	}
	return out
}

// Contracts returns all registered contracts sorted by name — the
// router's canonical order (ids are per shard and placement is a hash,
// so id order would be meaningless here).
func (db *DB) Contracts() []*core.Contract {
	var out []*core.Contract
	for _, sh := range db.shards {
		out = append(out, sh.Contracts()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName returns the contract registered under name.
func (db *DB) ByName(name string) (*core.Contract, bool) {
	return db.shardFor(name).ByName(name)
}

// SetParallelism changes the total worker budget for subsequent
// queries (0 restores the GOMAXPROCS default), re-dividing it across
// shards.
func (db *DB) SetParallelism(n int) {
	db.mu.Lock()
	db.opts.Parallelism = n
	db.mu.Unlock()
	per := perShardParallelism(n, len(db.shards))
	for _, sh := range db.shards {
		sh.SetParallelism(per)
	}
}

// options returns a consistent copy of the router-level options.
func (db *DB) options() core.Options {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.opts
}

// SetOpLog attaches (or, with nil, detaches) the durability sink on
// every shard. All shards share one sink: the write-ahead log is a
// single interleaved stream, and replay re-routes each record to its
// owning shard by name (placement is derived, never persisted). The
// sink must be safe for concurrent use — shards append under their own
// independent write locks.
func (db *DB) SetOpLog(l core.OpLog) {
	for _, sh := range db.shards {
		sh.SetOpLog(l)
	}
}

// ApplyRegistration routes a WAL registration record to its owning
// shard and installs it there (idempotently, like core's). It is the
// replay half of the sharded write-ahead protocol.
func (db *DB) ApplyRegistration(data []byte) error {
	return core.ApplyRegistrationTo(data, db.shardFor, nil)
}

// ApplyUnregister is the replay half of Unregister: idempotent, routed
// by name.
func (db *DB) ApplyUnregister(name string) error {
	return db.shardFor(name).ApplyUnregister(name)
}

// RegistrationStats returns the offline-cost counters summed across
// shards.
func (db *DB) RegistrationStats() core.RegistrationStats {
	var out core.RegistrationStats
	for _, sh := range db.shards {
		rs := sh.RegistrationStats()
		out.Contracts += rs.Contracts
		out.Total += rs.Total
		out.IndexBuild += rs.IndexBuild
		out.Projections += rs.Projections
		out.IndexNodes += rs.IndexNodes
		out.IndexBytes += rs.IndexBytes
		out.ProjectionRows += rs.ProjectionRows
		out.Translations += rs.Translations
	}
	return out
}

// CacheStats returns the router's compile-cache gauges. Shards have no
// compile cache: queries translate once, at the router.
func (db *DB) CacheStats() core.CacheStats {
	if db.compile == nil {
		return core.CacheStats{}
	}
	return core.CacheStats{QueryCacheLen: db.compile.Len(), QueryCacheCap: db.compile.Cap()}
}

// Stats returns the corpus-wide view: registration counters summed,
// shard work registries merged, and the router's own outcome counters
// (queries started, errors, translation latency, compile-cache traffic)
// overlaid. The shards never count queries, and their probe-level
// outcome counters (a losing FindAny probe reports a cancellation, for
// example) are dropped from the merge — query outcomes are the
// router's to report, work is the shards'.
func (db *DB) Stats() core.DBStats {
	snaps := make([]metrics.QuerySnapshot, 0, len(db.shards)+1)
	snaps = append(snaps, db.metrics.Snapshot())
	for _, sh := range db.shards {
		s := sh.Stats().Queries
		s.Queries, s.Errored, s.Canceled, s.BudgetExceeded = 0, 0, 0, 0
		snaps = append(snaps, s)
	}
	return core.DBStats{
		Registration: db.RegistrationStats(),
		Queries:      metrics.MergeQuery(snaps...),
		Caches:       db.CacheStats(),
	}
}

// RouterSnapshot returns the scatter-gather routing counters.
func (db *DB) RouterSnapshot() metrics.ShardRouterSnapshot {
	return db.router.Snapshot()
}
