// Package core implements the contract broker engine (paper §3): a
// database of temporal contract specifications that answers permission
// queries, with both of the paper's indexing techniques layered on
// top of the base algorithm.
//
// Registration (the paper's offline step) translates the contract's
// LTL specification to a Büchi automaton, precomputes the permission
// checker's seed states, inserts the automaton's labels into the
// prefilter index, and precomputes bisimulation projections.
//
// Query evaluation (the online step) translates the query once,
// obtains the candidate set from the prefilter index, picks for every
// candidate the smallest precomputed projection that is equivalent for
// the query's events, and runs the simultaneous-lasso search. Either
// optimization can be switched off per query, which is how the
// experiment harness measures the unoptimized baseline on the same
// database.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/metrics"
	"contractdb/internal/permission"
	"contractdb/internal/prefilter"
	"contractdb/internal/qcache"
	"contractdb/internal/vocab"
)

// Options configure registration-time precomputation.
type Options struct {
	// PrefilterK is the literal-set depth of the prefilter index
	// (§4.2). Zero selects prefilter.DefaultK.
	PrefilterK int
	// ProjectionBudget caps the size of event subsets whose
	// bisimulation partitions are precomputed (§5.2). Queries citing
	// more events fall back to the unprojected automaton. Zero selects
	// DefaultProjectionBudget; negative disables precomputation.
	ProjectionBudget int
	// MaxAutomatonStates, when positive, rejects contracts whose
	// translated automaton exceeds the limit. The experiment harness
	// uses it to keep the synthetic datasets within the size regime
	// the paper reports (its LTL2BA-built automata average ~31-51
	// states). The translator also abandons intermediate automata at
	// a multiple of the bound (ltl2ba.TranslateBounded), so it caps
	// what one specification's translation can cost.
	MaxAutomatonStates int
	// Parallelism is the number of workers evaluating a query's
	// candidate set concurrently (the paper's §7.4 observation that
	// per-contract checks are independent, applied to the online
	// step). Zero selects GOMAXPROCS; 1 forces the sequential scan.
	// Mode.Parallelism overrides it per query.
	Parallelism int
	// QueryCacheSize bounds the compilation cache (canonical query →
	// translated automata). Zero selects DefaultQueryCacheSize;
	// negative disables the cache.
	QueryCacheSize int
	// ResultCacheSize is ignored: query results are not cached. The
	// field remains because snapshot heads serialize Options as JSON
	// and existing callers still set it.
	ResultCacheSize int
}

// DefaultQueryCacheSize is the compilation cache's default capacity.
const DefaultQueryCacheSize = 512

// DefaultProjectionBudget bounds projection precomputation to event
// subsets of size ≤ 6, which covers the simple and medium query
// classes and most complex queries (§5.2 notes over-budget queries
// benefit from the prefilter instead). The Theorem 3 lattice seeding
// plus the saturation shortcut make the marginal cost of deeper
// levels small, so this is close to the paper's full precomputation.
const DefaultProjectionBudget = 8

func (o Options) prefilterK() int {
	if o.PrefilterK == 0 {
		return prefilter.DefaultK
	}
	return o.PrefilterK
}

func (o Options) projectionBudget() int {
	if o.ProjectionBudget == 0 {
		return DefaultProjectionBudget
	}
	if o.ProjectionBudget < 0 {
		return -1
	}
	return o.ProjectionBudget
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) queryCacheSize() int {
	switch {
	case o.QueryCacheSize == 0:
		return DefaultQueryCacheSize
	case o.QueryCacheSize < 0:
		return 0
	}
	return o.QueryCacheSize
}

// Algorithm selects the permission-search kernel; see the permission
// package. The zero value is the fast single-pass SCC search; the
// paper's Algorithm 2 is available as AlgorithmNestedDFS for
// measurement fidelity.
type Algorithm = permission.Algorithm

// Re-exported algorithm selectors.
const (
	AlgorithmSCC       = permission.SCC
	AlgorithmNestedDFS = permission.NestedDFS
)

// Mode selects which optimizations a query evaluation uses. The zero
// Mode is the unoptimized full scan of §3 with the fast kernel.
type Mode struct {
	Prefilter bool // prune candidates through the index (§4)
	Bisim     bool // check against simplified projections (§5)
	// Algorithm selects the permission-search kernel used for every
	// candidate check.
	Algorithm Algorithm
	// FindAny stops the evaluation as soon as one matching contract is
	// found (broadcasting the early exit to all workers); the result
	// then holds at least one match when any exists, not necessarily
	// all. Find-all evaluations (FindAny false) always return the full
	// match set in contract-id order regardless of parallelism.
	FindAny bool
	// StepBudget caps the kernel steps of each candidate check; a
	// check exceeding it aborts the whole query with ErrBudgetExceeded.
	// Zero is unlimited. See permission.PermitsCtx.
	StepBudget int
	// Parallelism overrides Options.Parallelism for this query when
	// positive (1 forces a sequential scan, which the benchmarks use
	// to compare against the worker pool on one database).
	Parallelism int
	// NoCache bypasses the compilation cache for this evaluation: the
	// query is translated from scratch and nothing is stored. The
	// experiment harness uses it so cache
	// hits cannot contaminate the paper's measurements, and the
	// differential tests use it as the uncached oracle.
	NoCache bool
}

// Optimized enables both techniques, the configuration the paper's
// headline numbers use.
var Optimized = Mode{Prefilter: true, Bisim: true}

// Unoptimized is the baseline: scan every contract with the full
// automata.
var Unoptimized = Mode{}

// ContractID identifies a contract within one DB; ids are dense and
// assigned in registration order.
type ContractID int

// projState bundles a contract's projection artifacts with the mutex
// guarding their lazy caches. It is a separate, shareable object
// because the bulk-ingest path dedups structurally identical automata:
// contracts sharing an automaton share one projState, and so one
// quotient/checker cache and one lock. ps is set before the contract
// is published and never changes; mu guards the quotient slots
// ps.TableQuotient fills and checkers, one slot per partition table,
// filled on first use. Both are bounded by the partitions fixed at
// registration.
type projState struct {
	mu       sync.Mutex
	ps       *bisim.ProjectionSet
	checkers []*permission.Checker
}

// Contract is a registered contract with its precomputed artifacts.
type Contract struct {
	ID   ContractID
	Name string
	Spec *ltl.Expr

	auto    *buchi.BA
	checker *permission.Checker
	proj    *projState
}

// checkerFor returns a permission checker for the smallest projection
// equivalent to the contract for queries citing the given events,
// caching one checker per partition table. The second result reports
// whether the checker was served from the cache (false when the
// table's slot was filled on this call).
func (c *Contract) checkerFor(queryEvents vocab.Set) (*permission.Checker, bool) {
	st := c.proj
	t := st.ps.Table(queryEvents)
	if t < 0 {
		return c.checker, true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.checkers == nil {
		st.checkers = make([]*permission.Checker, st.ps.DistinctPartitions)
	}
	if ch := st.checkers[t]; ch != nil {
		return ch, true
	}
	ch := c.checker
	if q := st.ps.TableQuotient(t); q != c.auto {
		ch = permission.NewChecker(q)
	}
	st.checkers[t] = ch
	return ch, false
}

// Automaton returns the contract's Büchi automaton. Callers must not
// mutate it.
func (c *Contract) Automaton() *buchi.BA { return c.auto }

// Events returns the set of events the contract cites.
func (c *Contract) Events() vocab.Set { return c.auto.Events }

// OpLog is the durability hook of the storage engine: a write-ahead
// sink that receives every mutating operation after it has been
// validated and before it is applied to the in-memory state
// (append-before-apply). The calls happen under the database's write
// lock, so the log order is exactly the apply order; Register and
// RegisterBatch encode their records before taking the lock, so only
// the append waits there.
// A sink error aborts the operation — nothing is applied that was not
// first logged. internal/store implements it over a wal.Log.
type OpLog interface {
	// LogRegister receives the encoded registration record (the
	// byte-deterministic per-contract encoding of the current snapshot
	// format, replayable via ApplyRegistration).
	LogRegister(encoded []byte) error
	// LogUnregister receives the name of the contract being removed.
	LogUnregister(name string) error
}

// ErrDurability marks a mutation rejected because its write-ahead log
// append failed; the in-memory state was not changed.
var ErrDurability = errors.New("durability log append failed")

// ErrDuplicateName marks a registration whose name the database
// already holds.
var ErrDuplicateName = errors.New("already registered")

// DB is the contract database. All methods are safe for concurrent
// use.
type DB struct {
	mu   sync.RWMutex
	voc  *vocab.Vocabulary
	opts Options

	contracts []*Contract
	byName    map[string]*Contract
	index     *prefilter.Index

	// oplog, when non-nil, durably records every mutation before it is
	// applied (see OpLog). autoname numbers the generated names of
	// anonymous registrations; it only moves forward so an unregister
	// can never make a generated name collide.
	oplog    OpLog
	autoname int

	// encodeHook, when set, runs at the start of every registration
	// record encoding (SetEncodeHook; tests only). Atomic:
	// registrations encode without db.mu.
	encodeHook atomic.Pointer[func()]

	// registration-time cost accounting for the §7.4 measurements
	registerTime   time.Duration
	projectionTime time.Duration
	indexTime      time.Duration

	// translations counts LTL→BA translations performed by this DB's
	// registration paths. A database restored from a snapshot (or WAL
	// replay) performs none — the cold-start tests assert exactly that
	// through RegistrationStats.
	translations int64

	// metrics is the always-on query observability registry, exposed
	// via Stats and the server's /v1/metrics endpoint. Lock-free: it
	// is updated outside db.mu.
	metrics *metrics.Query

	// compile memoizes LTL→BA translation per canonical query form (nil
	// when Options disables it). Set once by NewDB; it has its own lock,
	// so queries use it outside mu.
	compile *qcache.CompileCache
}

// NewDB returns an empty database over the given vocabulary.
func NewDB(voc *vocab.Vocabulary, opts Options) *DB {
	db := &DB{
		voc:     voc,
		opts:    opts,
		byName:  make(map[string]*Contract),
		index:   prefilter.New(opts.prefilterK()),
		metrics: &metrics.Query{},
	}
	if n := opts.queryCacheSize(); n > 0 {
		db.compile = qcache.NewCompileCache(n, qcache.Metrics{
			Hits:      &db.metrics.QueryCacheHits,
			Misses:    &db.metrics.QueryCacheMisses,
			Evictions: &db.metrics.QueryCacheEvictions,
		})
	}
	return db
}

// SetParallelism changes the worker-pool width for subsequent queries
// (0 restores the GOMAXPROCS default). It exists so a deployment can
// tune a loaded snapshot without re-registering.
func (db *DB) SetParallelism(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.opts.Parallelism = n
}

// Vocabulary returns the database's shared event vocabulary.
func (db *DB) Vocabulary() *vocab.Vocabulary { return db.voc }

// Options returns the database's registration options as currently in
// effect (SetParallelism mutates them).
func (db *DB) Options() Options {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.opts
}

// Len returns the number of registered contracts.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.contracts)
}

// Contracts returns the registered contracts in id order (a copy of
// the slice; the contracts themselves are shared and immutable).
func (db *DB) Contracts() []*Contract {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]*Contract(nil), db.contracts...)
}

// ByName returns the contract registered under name.
func (db *DB) ByName(name string) (*Contract, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.byName[name]
	return c, ok
}

// Register translates and indexes a contract specification. Names
// must be unique; an empty name gets a generated one. An
// unsatisfiable specification is rejected: a contract that allows no
// behavior at all is always a publishing mistake, and it could never
// permit any query.
//
// With an OpLog attached, the fully validated registration is appended
// to the log before it becomes visible; a log failure rejects the
// registration with ErrDurability.
//
// Register returns only once every registration artifact — the
// projection precompute included — is in place, so a contract is never
// served without its projections.
func (db *DB) Register(name string, spec *ltl.Expr) (*Contract, error) {
	return db.RegisterCtx(context.Background(), name, spec)
}

// RegisterCtx is Register under a context: a translation still running
// when ctx is done fails with ErrCanceled.
func (db *DB) RegisterCtx(ctx context.Context, name string, spec *ltl.Expr) (*Contract, error) {
	// Claim the name first (minting a generated one consumes the
	// counter even if translation then fails) and release the lock:
	// prepare is the expensive part of registration — milliseconds
	// against the publish step's microseconds — and holding the write
	// lock through it would stall every concurrent query.
	db.mu.Lock()
	if name == "" {
		name = db.nextAutoName()
	} else if _, dup := db.byName[name]; dup {
		db.mu.Unlock()
		return nil, contractErr(name, ErrDuplicateName)
	}
	logging := db.oplog != nil
	db.mu.Unlock()

	a, err := db.prepare(ctx, spec)
	if err != nil {
		return nil, contractErr(name, err)
	}
	p, err := db.pend(a, name, spec, logging)
	if err != nil {
		return nil, contractErr(name, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// publishLocked re-checks the name: an explicit one can race
	// another registration in the unlocked window (a minted name
	// cannot — the counter is claimed).
	if err := db.publishLocked(p, a.cost); err != nil {
		return nil, contractErr(name, err)
	}
	return p.c, nil
}

// errUnsatisfiable rejects a specification whose automaton accepts
// nothing.
var errUnsatisfiable = errors.New("allows no behavior (unsatisfiable specification)")

// contractErr names the contract a registration error belongs to.
func contractErr(name string, err error) error {
	return fmt.Errorf("core: contract %q: %w", name, err)
}

// artifacts are one specification's registration products (§3's
// offline step): the automaton, its checker, its projection partitions
// and its prefilter nodes. They read only the specification and the
// append-only vocabulary, so prepare builds them without db.mu, and
// every contract a batch registers under one specification shares
// them.
type artifacts struct {
	auto    *buchi.BA
	checker *permission.Checker
	proj    *projState
	prep    prefilter.Prepared
	cost    regCost
}

// regCost is the registration work publishLocked charges to
// RegistrationStats, once per prepared artifact set.
type regCost struct {
	total, projections, index time.Duration
	translations              int64
}

// prepare runs the expensive half of registration off the lock:
// translate, reject the empty automaton, build the checker, precompute
// the bisimulation projections (§5.2) and enumerate the prefilter
// nodes (§4.2).
func (db *DB) prepare(ctx context.Context, spec *ltl.Expr) (*artifacts, error) {
	start := time.Now()
	auto, err := translate(ctx, db.voc, spec, db.opts.MaxAutomatonStates)
	if err != nil {
		return nil, err
	}
	if auto.IsEmpty() {
		return nil, errUnsatisfiable
	}
	a := &artifacts{auto: auto, checker: permission.NewChecker(auto), cost: regCost{translations: 1}}
	t := time.Now()
	a.proj = &projState{ps: bisim.Precompute(auto, db.effectiveBudget(auto))}
	a.cost.projections = time.Since(t)
	t = time.Now()
	a.prep = prefilter.Prepare(auto, db.opts.prefilterK())
	a.cost.index = time.Since(t)
	a.cost.total = time.Since(start)
	return a, nil
}

// pending is a contract ready to publish: every artifact built and,
// when it is to be logged, its register record encoded; only the id
// is missing.
type pending struct {
	c    *Contract
	prep prefilter.Prepared
	// rec is the encoded register record, nil when none was encoded.
	rec []byte
	// restored marks a contract read from a snapshot or the log, which
	// is never logged again.
	restored bool
}

// pend names a's contract and, when logging, encodes its register
// record — the projection export and the container framing — so the
// write lock covers only the append.
func (db *DB) pend(a *artifacts, name string, spec *ltl.Expr, logging bool) (pending, error) {
	p := pending{
		c:    &Contract{Name: name, Spec: spec, auto: a.auto, checker: a.checker, proj: a.proj},
		prep: a.prep,
	}
	if logging {
		var err error
		if p.rec, err = db.encodeRegistration(p.c); err != nil {
			return p, err
		}
	}
	return p, nil
}

// publishLocked makes p's contract visible under the next dense id. It
// is the one step every way in shares — Register, RegisterBatch,
// snapshot load and log replay — and the only code that adds to
// db.contracts, db.byName and the prefilter index: it refuses a name
// db already holds with ErrDuplicateName, appends the register record
// to the op log (unless the contract was restored), inserts the
// prepared prefilter nodes, and charges cost plus the insert to
// RegistrationStats. A refused contract leaves db unchanged. Callers
// hold the write lock.
func (db *DB) publishLocked(p pending, cost regCost) error {
	c := p.c
	if _, dup := db.byName[c.Name]; dup {
		return ErrDuplicateName
	}
	if db.oplog != nil && !p.restored {
		rec := p.rec
		if rec == nil { // the log was attached after the caller looked
			var err error
			if rec, err = db.encodeRegistration(c); err != nil {
				return err
			}
		}
		if err := db.oplog.LogRegister(rec); err != nil {
			return fmt.Errorf("%w: %w", ErrDurability, err)
		}
	}
	t := time.Now()
	c.ID = ContractID(len(db.contracts))
	db.index.InsertPrepared(int(c.ID), p.prep)
	db.contracts = append(db.contracts, c)
	db.byName[c.Name] = c
	insert := time.Since(t)
	db.registerTime += cost.total + insert
	db.indexTime += cost.index + insert
	db.projectionTime += cost.projections
	db.translations += cost.translations
	return nil
}

// nextAutoName mints an unused generated name. Callers hold the write
// lock.
func (db *DB) nextAutoName() string {
	for {
		name := fmt.Sprintf("contract-%d", db.autoname)
		db.autoname++
		if _, dup := db.byName[name]; !dup {
			return name
		}
	}
}

// SetOpLog attaches (or, with nil, detaches) the durability sink that
// receives every subsequent mutation before it is applied. The store
// layer calls this once after recovery, before the database serves
// writers.
func (db *DB) SetOpLog(l OpLog) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.oplog = l
}

// ErrNotFound marks operations naming a contract the database does not
// hold.
var ErrNotFound = errors.New("contract not found")

// Unregister removes the named contract: its entry, its prefilter
// postings and its projection partitions all go, and the remaining
// contracts are re-identified densely. Unknown names report
// ErrNotFound. With an OpLog attached the removal is logged before it
// is applied.
func (db *DB) Unregister(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.byName[name]
	if !ok {
		return fmt.Errorf("core: unregister: no contract named %q: %w", name, ErrNotFound)
	}
	if db.oplog != nil {
		if err := db.oplog.LogUnregister(name); err != nil {
			return fmt.Errorf("core: unregister %q: %w: %w", name, ErrDurability, err)
		}
	}
	db.removeLocked(c)
	return nil
}

// removeLocked deletes c and restores the dense-id invariant: ids are
// reassigned in order, and the prefilter index drops c's bit from
// every node and shifts the later ids down, which leaves it as a
// rebuild over the survivors would without enumerating their labels
// again. Callers hold the write lock.
func (db *DB) removeLocked(c *Contract) {
	delete(db.byName, c.Name)
	db.contracts = append(db.contracts[:c.ID], db.contracts[c.ID+1:]...)
	t := time.Now()
	db.index.Remove(int(c.ID))
	for i, cc := range db.contracts {
		cc.ID = ContractID(i)
	}
	db.indexTime += time.Since(t)
}

// effectiveBudget adapts the projection budget to the automaton size:
// each extra subset level costs a pass over every transition, so very
// large automata get a reduced budget rather than minutes of
// precomputation (one of the §5.2 mitigations).
func (db *DB) effectiveBudget(auto *buchi.BA) int {
	budget := db.opts.projectionBudget()
	if budget < 0 {
		budget = 0
	}
	switch edges := auto.NumEdges(); {
	case edges > 100_000:
		budget = min(budget, 1)
	case edges > 20_000:
		budget = min(budget, 3)
	}
	return budget
}

// RegisterLTL parses src and registers it.
func (db *DB) RegisterLTL(name, src string) (*Contract, error) {
	return db.RegisterLTLCtx(context.Background(), name, src)
}

// RegisterLTLCtx is RegisterLTL under the request context the HTTP
// server passes: a translation still running when ctx is done fails
// with ErrCanceled.
func (db *DB) RegisterLTLCtx(ctx context.Context, name, src string) (*Contract, error) {
	spec, err := ltl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: contract %q: %w", name, err)
	}
	return db.RegisterCtx(ctx, name, spec)
}

// QueryStats describes the work one query evaluation performed.
type QueryStats struct {
	Total      int // contracts in the database
	Candidates int // contracts surviving the prefilter
	Checked    int // permission checks actually executed
	Permitted  int

	Translate time.Duration // LTL → BA time for the query
	Filter    time.Duration // prefilter candidate retrieval
	Check     time.Duration // permission checks (including projection lookup)
	// ProjPick is the summed per-candidate projection lookup time.
	// Under a parallel evaluation workers overlap, so this is CPU
	// time, not wall time, and is included in Check's wall clock.
	ProjPick time.Duration

	Permission permission.Stats // aggregated checker work counters

	// CompileHit reports the canonical compile cache served the query
	// automaton, so no LTL→BA translation ran.
	CompileHit bool

	// Shards is never filled: one engine answers every query. It is
	// kept only because the benchmark harness still reads it.
	Shards []ShardProbeStat
}

// ShardProbeStat is never produced; QueryStats.Shards keeps the type
// for the benchmark harness that still compiles against it.
type ShardProbeStat struct {
	Shard      int
	Dur        time.Duration
	Candidates int
	Checked    int
	Steps      int64
}

// Elapsed returns the query's total evaluation time, the quantity the
// paper's experiments report.
func (s QueryStats) Elapsed() time.Duration { return s.Translate + s.Filter + s.Check }

// Result is the answer to a query: the permitting contracts in id
// order, plus evaluation statistics.
type Result struct {
	Matches []*Contract
	Stats   QueryStats
}

// Query evaluates a query with both optimizations enabled.
func (db *DB) Query(spec *ltl.Expr) (*Result, error) {
	return db.QueryMode(spec, Optimized)
}

// QueryLTL parses and evaluates a query.
func (db *DB) QueryLTL(src string) (*Result, error) {
	spec, err := ltl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: query: %w", err)
	}
	return db.Query(spec)
}

// QueryMode evaluates a query under an explicit optimization mode.
func (db *DB) QueryMode(spec *ltl.Expr, mode Mode) (*Result, error) {
	return db.QueryModeCtx(nil, spec, mode)
}

// RegistrationStats reports the accumulated offline costs (§7.4).
// Total is wall clock: each Register call's, and each RegisterBatch
// call's once. IndexBuild and Projections sum the work of every
// preparation, so in a parallel batch they can exceed Total.
type RegistrationStats struct {
	Contracts      int
	Total          time.Duration
	IndexBuild     time.Duration
	Projections    time.Duration
	IndexNodes     int
	IndexBytes     int
	ProjectionRows int // total precomputed (subset, partition) entries

	// Translations counts LTL→BA translations this DB's registration
	// paths performed. Zero after a pure snapshot load or WAL replay:
	// persisted automata are restored, never re-translated.
	Translations int64
}

// RegistrationStats returns the database's offline-cost counters.
func (db *DB) RegistrationStats() RegistrationStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rs := RegistrationStats{
		Contracts:    len(db.contracts),
		Total:        db.registerTime,
		IndexBuild:   db.indexTime,
		Projections:  db.projectionTime,
		IndexNodes:   db.index.NodeCount(),
		IndexBytes:   db.index.ApproxBytes(),
		Translations: db.translations,
	}
	for _, c := range db.contracts {
		rs.ProjectionRows += c.proj.ps.PrecomputedSubsets
	}
	return rs
}

// ProjectionStats returns the contract's projection precomputation
// counters: distinct partitions and total precomputed subsets (the
// §5.2 dedup observation).
func (c *Contract) ProjectionStats() (distinct, subsets int) {
	return c.proj.ps.DistinctPartitions, c.proj.ps.PrecomputedSubsets
}

// QueryObligation returns the contracts that *guarantee* the property:
// every allowed behavior of the contract satisfies the query. This is
// the deontic dual of permission (§8 relates contracts to
// permission/obligation formalisms): a contract obliges ψ iff it does
// not permit ¬ψ — no allowed sequence over the contract's own events
// violates the property. Like permission, obligation is evaluated
// against the contract's vocabulary: events the contract never cites
// cannot be constrained by it, so a query requiring behavior of a
// foreign event is never guaranteed.
func (db *DB) QueryObligation(spec *ltl.Expr) (*Result, error) {
	return db.QueryObligationMode(spec, Optimized)
}

// QueryObligationMode is QueryObligation under an explicit mode. The
// prefilter cannot be used for the negated query's candidate set (it
// over-approximates permission, while obligation needs its
// complement), so only the kernel and projections apply.
func (db *DB) QueryObligationMode(spec *ltl.Expr, mode Mode) (*Result, error) {
	return db.QueryObligationModeCtx(nil, spec, mode)
}

// QueryObligationLTL parses and evaluates an obligation query.
func (db *DB) QueryObligationLTL(src string) (*Result, error) {
	spec, err := ltl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: obligation query: %w", err)
	}
	return db.QueryObligation(spec)
}
