package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/metrics"
	"contractdb/internal/permission"
	"contractdb/internal/qcache"
	"contractdb/internal/trace"
	"contractdb/internal/vocab"
)

// Errors distinguishing aborted queries from malformed ones,
// re-exported from the permission kernels so callers need only this
// package. Both satisfy errors.Is against the permission originals.
var (
	// ErrCanceled reports a query aborted by its context (cancellation
	// or deadline) before the candidate scan completed.
	ErrCanceled = permission.ErrCanceled
	// ErrBudgetExceeded reports a query aborted because a candidate
	// check exhausted Mode.StepBudget.
	ErrBudgetExceeded = permission.ErrBudgetExceeded
)

// errFoundAny is the cancellation cause broadcast to the worker pool
// when a FindAny evaluation has its witness; it is never returned.
var errFoundAny = errors.New("core: find-any early exit")

// QueryCtx evaluates a query with both optimizations enabled under a
// context: canceling ctx (or passing one with an expired deadline)
// aborts the evaluation mid-search with ErrCanceled.
func (db *DB) QueryCtx(ctx context.Context, spec *ltl.Expr) (*Result, error) {
	return db.QueryModeCtx(ctx, spec, Optimized)
}

// QueryModeCtx is QueryMode under a context. A nil ctx never cancels.
// The candidate scan runs on a worker pool of Mode.Parallelism (or
// Options.Parallelism) goroutines; find-all results are returned in
// contract-id order regardless of worker interleaving.
func (db *DB) QueryModeCtx(ctx context.Context, spec *ltl.Expr, mode Mode) (*Result, error) {
	return db.evalQuery(ctx, spec, mode, false)
}

// QueryObligationModeCtx is QueryObligationMode under a context; see
// QueryModeCtx for cancellation and parallelism semantics.
func (db *DB) QueryObligationModeCtx(ctx context.Context, spec *ltl.Expr, mode Mode) (*Result, error) {
	return db.evalQuery(ctx, spec, mode, true)
}

// translateQuery is the query's translate step: canonicalize through
// the compile cache (skipped when it is disabled or mode.NoCache) and
// build — or reuse — the automaton of the query, or of its negation
// for an obligation. compileHit reports a compile-cache hit. It takes
// no database lock: the vocabulary and the cache are safe for
// concurrent use.
func (db *DB) translateQuery(ctx context.Context, spec *ltl.Expr, mode Mode, obligation bool) (qa *buchi.BA, compileHit bool, err error) {
	var compiled *qcache.Compiled
	if db.compile != nil && !mode.NoCache {
		_, csp := trace.StartSpan(ctx, "canonicalize")
		compiled, compileHit = db.compile.Lookup(spec)
		if csp != nil {
			csp.SetAttr("cache_hit", compileHit)
		}
		csp.End()
	}
	_, tsp := trace.StartSpan(ctx, "translate")
	if compiled != nil {
		qa, err = compiled.Automaton(obligation, func(f *ltl.Expr) (*buchi.BA, error) {
			return translate(ctx, db.voc, f, 0)
		})
	} else {
		q := spec
		if obligation {
			q = ltl.Not(spec)
		}
		qa, err = translate(ctx, db.voc, q, 0)
	}
	if tsp != nil && qa != nil {
		tsp.SetAttr("states", qa.NumStates())
	}
	tsp.SetError(err)
	tsp.End()
	return qa, compileHit, err
}

// translate is the package's one call into the translator, shared by
// queries, registration and explain: a translation still running when
// ctx is done fails with ErrCanceled. A nil ctx never cancels.
func translate(ctx context.Context, voc *vocab.Vocabulary, f *ltl.Expr, maxStates int) (*buchi.BA, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a, err := ltl2ba.TranslateBounded(ctx, voc, f, maxStates)
	if err != nil && errors.Is(err, ctx.Err()) {
		return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return a, err
}

// evalQuery is the query path: translate through the compile cache
// outside the lock, then, under mu's read lock and a "scan" span,
// prefilter (permission queries only — the index over-approximates
// permission, which is the wrong side for obligation's negated query)
// and scan the candidates.
func (db *DB) evalQuery(ctx context.Context, spec *ltl.Expr, mode Mode, obligation bool) (*Result, error) {
	db.metrics.Queries.Inc()

	errPrefix := "core: query"
	if obligation {
		errPrefix = "core: obligation query"
	}

	start := time.Now()
	qa, compileHit, err := db.translateQuery(ctx, spec, mode, obligation)
	if err != nil {
		db.metrics.Errored.Inc()
		if errors.Is(err, ErrCanceled) {
			db.metrics.Canceled.Inc()
		}
		return nil, fmt.Errorf("%s: %w", errPrefix, err)
	}
	translate := time.Since(start)
	db.metrics.Translate.Observe(translate)

	sctx, ssp := trace.StartSpan(ctx, "scan")
	db.mu.RLock()
	stats := QueryStats{Total: len(db.contracts)}
	candidates := db.prefilterLocked(sctx, qa, mode, obligation, &stats)
	res, err := db.finishQuery(sctx, qa, candidates, mode, obligation, &stats)
	db.mu.RUnlock()
	if ssp != nil && res != nil {
		ssp.SetAttr("checked", res.Stats.Checked)
		ssp.SetAttr("steps", res.Stats.Permission.Steps)
		ssp.SetAttr("matched", len(res.Matches))
	}
	ssp.SetError(err)
	ssp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", errPrefix, err)
	}
	res.Stats.Translate = translate
	res.Stats.CompileHit = compileHit
	return res, nil
}

// prefilterLocked computes the candidate set for qa: the prefiltered
// subset for permission queries when the mode asks for it, the whole
// corpus otherwise. It fills stats.Candidates/Filter and the pruning
// counters. Callers hold mu's read lock.
func (db *DB) prefilterLocked(ctx context.Context, qa *buchi.BA, mode Mode, obligation bool, stats *QueryStats) []*Contract {
	candidates := db.contracts
	if mode.Prefilter && !obligation {
		t := time.Now()
		_, fsp := trace.StartSpan(ctx, "prefilter")
		set := db.index.Candidates(qa)
		stats.Filter = time.Since(t)
		db.metrics.Prefilter.Observe(stats.Filter)
		candidates = make([]*Contract, 0, set.Count())
		set.ForEach(func(id int) bool {
			candidates = append(candidates, db.contracts[id])
			return true
		})
		if fsp != nil {
			fsp.SetAttr("total", stats.Total)
			fsp.SetAttr("candidates", len(candidates))
		}
		fsp.End()
	}
	stats.Candidates = len(candidates)
	db.metrics.CandidatesPruned.Add(int64(stats.Total - len(candidates)))
	return candidates
}

// finishQuery runs the candidate scan, folds its accounting into the
// metrics registry, and assembles the Result. invert selects
// obligation semantics (match = does NOT permit the negated query).
// Callers hold db.mu.RLock and wrap returned errors.
func (db *DB) finishQuery(ctx context.Context, qa *buchi.BA, candidates []*Contract, mode Mode, invert bool, stats *QueryStats) (*Result, error) {
	t := time.Now()
	matches, err := db.evalCandidates(ctx, qa, candidates, mode, invert, stats)
	stats.Check = time.Since(t)
	db.metrics.Kernel.Observe(stats.Check)
	db.metrics.ProjectionPick.Observe(stats.ProjPick)
	db.metrics.CandidatesScanned.Add(int64(stats.Checked))
	db.metrics.KernelSteps.Add(int64(stats.Permission.Steps))
	if err != nil {
		db.metrics.Errored.Inc()
		switch {
		case errors.Is(err, ErrBudgetExceeded):
			db.metrics.BudgetExceeded.Inc()
		case errors.Is(err, ErrCanceled):
			db.metrics.Canceled.Inc()
		}
		return nil, err
	}
	stats.Permitted = len(matches)
	db.metrics.Permitted.Add(int64(len(matches)))
	return &Result{Matches: matches, Stats: *stats}, nil
}

// checkAgg accumulates one worker's scan accounting; merged into
// QueryStats and the metrics registry after the pool drains, so the
// hot loop touches no shared state.
type checkAgg struct {
	checked    int
	projPick   time.Duration
	projHits   int64
	projMisses int64
	perm       permission.Stats
}

// checkOne evaluates a single candidate: pick the smallest equivalent
// projection (when Bisim is on), then run the selected kernel under
// the context and step budget.
func (db *DB) checkOne(ctx context.Context, qa *buchi.BA, c *Contract, mode Mode, agg *checkAgg) (bool, error) {
	_, sp := trace.StartSpan(ctx, "check")
	target := c.checker
	if mode.Bisim {
		t := time.Now()
		var hit bool
		target, hit = c.checkerFor(qa.Events)
		agg.projPick += time.Since(t)
		if hit {
			agg.projHits++
		} else {
			agg.projMisses++
		}
	}
	ok, ps, err := target.PermitsCtx(ctx, qa, mode.Algorithm, mode.StepBudget)
	agg.checked++
	agg.perm.Add(ps)
	if sp != nil {
		sp.SetAttr("contract", c.Name)
		sp.SetAttr("permits", ok)
		sp.SetAttr("steps", ps.Steps)
	}
	sp.SetError(err)
	sp.End()
	return ok, err
}

// evalCandidates scans the candidate set, sequentially or on a worker
// pool, and returns the matches in candidate (contract-id) order.
func (db *DB) evalCandidates(ctx context.Context, qa *buchi.BA, candidates []*Contract, mode Mode, invert bool, stats *QueryStats) ([]*Contract, error) {
	workers := mode.Parallelism
	if workers <= 0 {
		workers = db.opts.parallelism()
	}
	if workers > len(candidates) {
		workers = len(candidates)
	}
	if workers <= 1 {
		return db.evalSequential(ctx, qa, candidates, mode, invert, stats)
	}

	// The pool shares one cancellable context: a FindAny witness, a
	// worker failure (budget), or the caller's own cancellation all
	// broadcast through it. context.Cause keeps the *first* reason.
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	matched := make([]bool, len(candidates))
	aggs := make([]checkAgg, workers)
	var next atomic.Int64
	// witnessed admits exactly one FindAny witness: several workers can
	// each find a match before any of them sees the cancellation.
	var witnessed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(agg *checkAgg) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(candidates) || cctx.Err() != nil {
					return
				}
				ok, err := db.checkOne(cctx, qa, candidates[i], mode, agg)
				if err != nil {
					cancel(err)
					return
				}
				if ok != invert {
					if !mode.FindAny {
						matched[i] = true
						continue
					}
					if witnessed.CompareAndSwap(false, true) {
						matched[i] = true
					}
					cancel(errFoundAny)
					return
				}
			}
		}(&aggs[w])
	}
	wg.Wait()

	for i := range aggs {
		stats.Checked += aggs[i].checked
		stats.ProjPick += aggs[i].projPick
		stats.Permission.Add(aggs[i].perm)
		db.metrics.ProjCacheHits.Add(aggs[i].projHits)
		db.metrics.ProjCacheMisses.Add(aggs[i].projMisses)
	}

	// Resolve the abort reason. The caller's cancellation wins; then
	// the first real worker error; a FindAny early exit is success
	// (in-flight checks it interrupted report ErrCanceled, which the
	// cause check below deliberately absorbs).
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	if cause := context.Cause(cctx); cause != nil && !errors.Is(cause, errFoundAny) {
		return nil, cause
	}
	out := make([]*Contract, 0, len(candidates))
	for i, m := range matched {
		if m {
			out = append(out, candidates[i])
		}
	}
	return out, nil
}

func (db *DB) evalSequential(ctx context.Context, qa *buchi.BA, candidates []*Contract, mode Mode, invert bool, stats *QueryStats) ([]*Contract, error) {
	var agg checkAgg
	var out []*Contract
	for _, c := range candidates {
		ok, err := db.checkOne(ctx, qa, c, mode, &agg)
		if err != nil {
			db.mergeAgg(&agg, stats)
			return nil, err
		}
		if ok != invert {
			out = append(out, c)
			if mode.FindAny {
				break
			}
		}
	}
	db.mergeAgg(&agg, stats)
	return out, nil
}

func (db *DB) mergeAgg(agg *checkAgg, stats *QueryStats) {
	stats.Checked += agg.checked
	stats.ProjPick += agg.projPick
	stats.Permission.Add(agg.perm)
	db.metrics.ProjCacheHits.Add(agg.projHits)
	db.metrics.ProjCacheMisses.Add(agg.projMisses)
}

// DBStats combines the offline registration counters with the online
// query metrics — the payload of the server's /v1/metrics endpoint.
type DBStats struct {
	Registration RegistrationStats
	Queries      metrics.QuerySnapshot
	Caches       CacheStats
}

// CacheStats is a point-in-time view of the compile cache: its
// occupancy and capacity. Hit/miss/eviction counters live in the
// Queries snapshot.
type CacheStats struct {
	QueryCacheLen int
	QueryCacheCap int
}

// Stats returns a point-in-time view of the database's registration
// counters and query metrics. Safe for concurrent use with queries
// and registration.
func (db *DB) Stats() DBStats {
	return DBStats{
		Registration: db.RegistrationStats(),
		Queries:      db.metrics.Snapshot(),
		Caches:       db.CacheStats(),
	}
}

// CacheStats returns the compile-cache gauges (zero when the cache is
// disabled). Safe for concurrent use.
func (db *DB) CacheStats() CacheStats {
	if db.compile == nil {
		return CacheStats{}
	}
	return CacheStats{QueryCacheLen: db.compile.Len(), QueryCacheCap: db.compile.Cap()}
}
