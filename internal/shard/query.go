package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/ltl"
	"contractdb/internal/trace"
)

// errFoundAny is the cancellation cause the router broadcasts to the
// outstanding shard probes once a FindAny scatter has its witness; it
// is never returned to callers.
var errFoundAny = errors.New("shard: find-any early exit")

// Query evaluates a query with both optimizations enabled.
func (db *DB) Query(spec *ltl.Expr) (*core.Result, error) {
	return db.QueryMode(spec, core.Optimized)
}

// QueryLTL parses and evaluates a query.
func (db *DB) QueryLTL(src string) (*core.Result, error) {
	spec, err := ltl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: query: %w", err)
	}
	return db.Query(spec)
}

// QueryMode evaluates a query under an explicit optimization mode.
func (db *DB) QueryMode(spec *ltl.Expr, mode core.Mode) (*core.Result, error) {
	return db.QueryModeCtx(nil, spec, mode)
}

// QueryCtx evaluates a query with both optimizations enabled under a
// context.
func (db *DB) QueryCtx(ctx context.Context, spec *ltl.Expr) (*core.Result, error) {
	return db.QueryModeCtx(ctx, spec, core.Optimized)
}

// QueryModeCtx scatters the query to every shard and gathers the
// merged result; see eval for the protocol.
func (db *DB) QueryModeCtx(ctx context.Context, spec *ltl.Expr, mode core.Mode) (*core.Result, error) {
	return db.eval(ctx, spec, mode, false)
}

// QueryObligation returns the contracts that guarantee the property;
// see core.DB.QueryObligation for semantics.
func (db *DB) QueryObligation(spec *ltl.Expr) (*core.Result, error) {
	return db.QueryObligationMode(spec, core.Optimized)
}

// QueryObligationMode is QueryObligation under an explicit mode.
func (db *DB) QueryObligationMode(spec *ltl.Expr, mode core.Mode) (*core.Result, error) {
	return db.QueryObligationModeCtx(nil, spec, mode)
}

// QueryObligationLTL parses and evaluates an obligation query.
func (db *DB) QueryObligationLTL(src string) (*core.Result, error) {
	spec, err := ltl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: obligation query: %w", err)
	}
	return db.QueryObligation(spec)
}

// QueryObligationModeCtx is the obligation scatter under a context.
func (db *DB) QueryObligationModeCtx(ctx context.Context, spec *ltl.Expr, mode core.Mode) (*core.Result, error) {
	return db.eval(ctx, spec, mode, true)
}

// probe is one shard's contribution to a scatter.
type probe struct {
	res *core.Result
	err error
	dur time.Duration
}

// eval is the scatter-gather protocol:
//
//  1. Translate once at the router — canonicalize through the shared
//     compile cache, build (or reuse) the automaton. Every shard
//     receives the same *buchi.BA; automaton labels are bitsets over
//     the shared vocabulary, so the compiled form is shard-agnostic.
//  2. Scatter — one goroutine per shard calls EvalCompiled under the
//     shard's read lock. A "shard" span per probe nests under the
//     router's "scan" span.
//  3. Early exit — the first FindAny witness broadcasts cancellation
//     to the other probes through a shared context; a probe failure
//     does the same with its error as the cause.
//  4. Gather — FindAll merges the per-shard match lists and sorts by
//     contract name, which makes the result order a pure function of
//     the corpus (shard count, probe arrival order and worker
//     interleaving all cancel out). FindAny keeps whatever matches
//     landed before the cancellation won, under the same order.
//
// Error resolution mirrors core.evalCandidates: the caller's own
// cancellation wins; then the first real probe failure (the cancel
// cause); a FindAny early exit is success, and the ErrCanceled the
// losing probes report is absorbed.
func (db *DB) eval(ctx context.Context, spec *ltl.Expr, mode core.Mode, obligation bool) (*core.Result, error) {
	db.metrics.Queries.Inc()

	errPrefix := "core: query"
	if obligation {
		errPrefix = "core: obligation query"
	}

	// Stage 1: translate once.
	var stats core.QueryStats
	t := time.Now()
	qa, compileHit, err := core.Translate(ctx, db.voc, db.compile, spec, mode, obligation)
	stats.CompileHit = compileHit
	if err != nil {
		db.metrics.Errored.Inc()
		if errors.Is(err, core.ErrCanceled) {
			db.metrics.Canceled.Inc()
		}
		return nil, fmt.Errorf("%s: %w", errPrefix, err)
	}
	stats.Translate = time.Since(t)
	db.metrics.Translate.Observe(stats.Translate)

	// Stage 2+3: scatter with shared cancellation.
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	sctx, ssp := trace.StartSpan(ctx, "scan")
	start := time.Now()
	probes := make([]probe, len(db.shards))
	var wg sync.WaitGroup
	for i, sh := range db.shards {
		wg.Add(1)
		go func(i int, sh *core.DB) {
			defer wg.Done()
			db.router.Probes.Inc()
			pctx, psp := trace.StartSpan(sctx, "shard")
			if psp != nil {
				psp.SetAttr("shard", i)
			}
			pstart := time.Now()
			res, err := sh.EvalCompiled(pctx, qa, mode, obligation)
			pdur := time.Since(pstart)
			if psp != nil && res != nil {
				psp.SetAttr("matched", len(res.Matches))
				psp.SetAttr("candidates", res.Stats.Candidates)
				psp.SetAttr("checked", res.Stats.Checked)
				psp.SetAttr("steps", res.Stats.Permission.Steps)
			}
			psp.SetError(err)
			psp.End()
			probes[i] = probe{res: res, err: err, dur: pdur}
			switch {
			case err != nil:
				cancel(err)
			case mode.FindAny && len(res.Matches) > 0:
				cancel(errFoundAny)
			}
		}(i, sh)
	}
	wg.Wait()
	db.router.Scatter.Observe(time.Since(start))

	res, err := db.gather(probes, cctx, ctx, mode, &stats)
	if ssp != nil && res != nil {
		ssp.SetAttr("checked", res.Stats.Checked)
		ssp.SetAttr("matched", len(res.Matches))
	}
	ssp.SetError(err)
	ssp.End()
	if err != nil {
		db.metrics.Errored.Inc()
		switch {
		case errors.Is(err, core.ErrBudgetExceeded):
			db.metrics.BudgetExceeded.Inc()
		case errors.Is(err, core.ErrCanceled):
			db.metrics.Canceled.Inc()
		}
		return nil, fmt.Errorf("%s: %w", errPrefix, err)
	}
	return res, nil
}

// gather resolves the scatter's outcome and merges the per-shard
// results deterministically.
func (db *DB) gather(probes []probe, cctx, ctx context.Context, mode core.Mode, stats *core.QueryStats) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.ErrCanceled
	}
	cause := context.Cause(cctx)
	early := cause != nil && errors.Is(cause, errFoundAny)
	if early {
		db.router.EarlyExits.Inc()
	}
	if cause != nil && !early {
		// First real probe failure. Prefer the cause (the failure that
		// won the broadcast) over per-probe errors: the other probes
		// typically hold the ErrCanceled it induced.
		return nil, cause
	}

	t := time.Now()
	defer func() { db.router.Merge.Observe(time.Since(t)) }()

	var matches []*core.Contract
	stats.Shards = make([]core.ShardProbeStat, 0, len(probes))
	for i := range probes {
		p := &probes[i]
		if p.res == nil {
			// A canceled losing probe under a FindAny early exit; its
			// shard contributed no counted work.
			continue
		}
		ps := p.res.Stats
		stats.Shards = append(stats.Shards, core.ShardProbeStat{
			Shard:      i,
			Dur:        p.dur,
			Candidates: ps.Candidates,
			Checked:    ps.Checked,
			Steps:      int64(ps.Permission.Steps),
		})
		stats.Total += ps.Total
		stats.Candidates += ps.Candidates
		stats.Checked += ps.Checked
		stats.ProjPick += ps.ProjPick
		stats.Permission.Add(ps.Permission)
		if ps.Filter > stats.Filter {
			stats.Filter = ps.Filter // probes overlap; report the critical path
		}
		if ps.Check > stats.Check {
			stats.Check = ps.Check
		}
		matches = append(matches, p.res.Matches...)
	}

	// Deterministic merge: contract names are unique corpus-wide, so
	// name order is total and independent of shard count and arrival
	// order.
	sort.Slice(matches, func(i, j int) bool { return matches[i].Name < matches[j].Name })
	stats.Permitted = len(matches)
	return &core.Result{Matches: matches, Stats: *stats}, nil
}
