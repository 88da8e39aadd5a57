// Package permission implements the paper's core contribution: the
// check that a contract permits a temporal query (Definition 1,
// Theorem 1, Algorithm 2).
//
// A contract C permits a query q iff the Büchi automata representing
// them admit a *simultaneous lasso path* (Definition 7): a pair of
// lasso paths, one in each automaton, whose step-wise labels are
// compatible — the query label must cite only contract-vocabulary
// events and must not conflict with the contract label. The checker
// explores the implicit product graph depth-first; whenever it reaches
// a pair whose query state is final (a potential knot), a nested
// search looks for a product cycle back to the knot that passes
// through a contract-final pair.
//
// Two refinements from the paper are implemented:
//
//   - Seeds (§6.2.4): a knot is viable only if its contract state lies
//     on a cycle through a contract-final state; those states are
//     precomputed at registration time.
//   - Memoization (§6.2.2): the nested search runs on the product
//     graph doubled with a "seen a contract-final pair" flag, so each
//     (pair, flag) is visited at most once per knot and the search is
//     linear in the product rather than backtracking-exponential.
//
// Both algorithms run on the CSR arrays of the two automata (see
// compiled.go) over lazily filled *target rows*: for a
// contract label and a query state, a bitset of the query states one
// compatible query edge reaches. The default SCC kernel (scc.go) is an
// on-the-fly Couvreur emptiness check that keeps its visited and
// active pairs as per-contract-state bitsets too, so it steps query
// states 64 at a time and answers at the edge that closes the first
// accepting cycle. Every piece of scratch comes from a pooled arena
// (arena.go), so steady-state checks allocate nothing.
//
// Invariant I3 — the kernels agree with each other and with an
// independent product-emptiness oracle, and honour the step budget
// and cancellation — is owned by TestKernelDifferential (which also
// runs the interpreted reference kernels kept in interpreted_test.go),
// TestKernelEarlyExit, TestPermitsCtxBudget, TestPermitsCtxCanceled
// and TestSteadyStateZeroAllocs.
package permission

import (
	"context"
	"errors"

	"contractdb/internal/buchi"
)

// Sentinel errors for aborted searches. Both kernels check the
// abort conditions as they expand the product graph, so a search
// stops mid-expansion instead of running the worst-case PSPACE
// procedure to completion.
var (
	// ErrCanceled is returned when the search's context is canceled
	// or its deadline expires before a verdict is reached.
	ErrCanceled = errors.New("permission: search canceled")
	// ErrBudgetExceeded is returned when the search exhausts its kernel
	// step budget before reaching a verdict.
	ErrBudgetExceeded = errors.New("permission: step budget exceeded")
)

// Stats reports work done by a single Permits call, used by the
// experiment harness and the ablation benchmarks.
type Stats struct {
	PairsVisited  int // distinct product pairs expanded in the outer DFS
	CycleSearches int // nested searches started (knots tried)
	CycleVisited  int // (pair, flag) states expanded across nested searches
	Steps         int // kernel steps consumed (pairs + cycle nodes), the budget unit
}

// Add accumulates another call's counters, for callers aggregating
// across many checks.
func (s *Stats) Add(o Stats) {
	s.PairsVisited += o.PairsVisited
	s.CycleSearches += o.CycleSearches
	s.CycleVisited += o.CycleVisited
	s.Steps += o.Steps
}

// Algorithm selects the search strategy. Both return identical
// verdicts (the tests cross-validate them); they differ in cost.
type Algorithm int

const (
	// SCC finds a simultaneous lasso with a single on-the-fly SCC pass
	// over the reachable product graph: permission holds iff some
	// reachable product component has an internal edge, a
	// contract-final pair and a query-final pair. This is Algorithm 2's
	// nested search with the memoization of §6.2.2 taken to its
	// conclusion ("we can code the whole procedure as a depth first
	// visit, never visiting any pair more than once") — linear in the
	// product, and it stops at the first accepting cycle. The default.
	SCC Algorithm = iota
	// NestedDFS is the paper's Algorithm 2 as printed: an outer
	// product DFS that starts a flag-doubled nested cycle search at
	// every viable knot. Kept as the reference implementation and for
	// the ablation benchmarks.
	NestedDFS
)

// Checker holds a contract automaton with its registration-time
// precomputation. A Checker is immutable after construction and safe
// for concurrent use.
type Checker struct {
	contract *buchi.BA
	// seeds[s] reports whether contract state s lies on a cycle
	// containing a contract-final state; only such states can anchor
	// the contract side of a simultaneous lasso cycle.
	seeds []bool
	// useSeeds disables the seed restriction for ablation studies; the
	// result is unchanged, only more nested searches run.
	useSeeds bool
	algo     Algorithm
}

// Option configures a Checker.
type Option func(*Checker)

// WithoutSeeds disables the seeds optimization of §6.2.4. Results are
// identical; the option exists to measure the optimization's benefit.
// It only affects the NestedDFS algorithm.
func WithoutSeeds() Option { return func(c *Checker) { c.useSeeds = false } }

// WithAlgorithm selects the search strategy.
func WithAlgorithm(a Algorithm) Option { return func(c *Checker) { c.algo = a } }

// WithSeeds installs a precomputed seed vector instead of running the
// SCC analysis at construction. The snapshot load path uses it:
// seeds were computed at registration and persisted, so adopting them
// keeps load free of per-contract graph analysis.
// The vector is trusted the same way the snapshot loader trusts the
// persisted edge set; only its length is checked.
func WithSeeds(seeds []bool) Option { return func(c *Checker) { c.seeds = seeds } }

// NewChecker precomputes the seed states of the contract automaton
// (registration-time work in the paper's architecture).
func NewChecker(contract *buchi.BA, opts ...Option) *Checker {
	c := &Checker{
		contract: contract,
		useSeeds: true,
	}
	for _, o := range opts {
		o(c)
	}
	if c.seeds == nil {
		c.seeds = contract.OnAcceptingCycle()
	} else if len(c.seeds) != contract.NumStates() {
		// A wrong-length adopted vector would index out of range in the
		// kernels; recompute rather than trust it.
		c.seeds = contract.OnAcceptingCycle()
	}
	return c
}

// Seeds returns the checker's seed vector (contract states on a
// final-containing cycle), for persistence. Callers must not mutate
// the returned slice.
func (c *Checker) Seeds() []bool { return c.seeds }

// Contract returns the automaton the checker was built for.
func (c *Checker) Contract() *buchi.BA { return c.contract }

// Permits reports whether the contract permits the query automaton.
func (c *Checker) Permits(query *buchi.BA) bool {
	ok, _ := c.PermitsStats(query)
	return ok
}

// PermitsStats is Permits with work counters.
func (c *Checker) PermitsStats(query *buchi.BA) (bool, Stats) {
	return c.PermitsAlgo(query, c.algo)
}

// PermitsAlgo runs the check with an explicit algorithm, overriding
// the checker's default. Both algorithms share the registration-time
// precomputation, so the experiment harness can compare them on one
// checker.
func (c *Checker) PermitsAlgo(query *buchi.BA, algo Algorithm) (bool, Stats) {
	ok, st, _ := c.PermitsCtx(nil, query, algo, 0)
	return ok, st
}

// PermitsCtx runs the check under a context and a kernel step budget,
// so a worst-case-hard search can be deadlined, aborted, or bounded
// instead of hanging its caller. A nil ctx never cancels;
// stepBudget ≤ 0 is unlimited. One step is one product pair (or
// nested-search node) expansion, the unit Stats.Steps reports.
//
// The returned error is nil for a completed search, ErrCanceled when
// the context fired first, or ErrBudgetExceeded when the budget ran
// out; the verdict is meaningless when the error is non-nil. Stats
// always reflect the work actually performed, so aborted searches
// still account their partial expansion.
func (c *Checker) PermitsCtx(ctx context.Context, query *buchi.BA, algo Algorithm, stepBudget int) (bool, Stats, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, Stats{}, ErrCanceled
		}
	}
	sc := scratchPool.Get().(*scratch)
	s := &sc.srch
	*s = search{
		cc:      c.contract,
		qc:      query,
		checker: c,
		nc:      c.contract.NumStates(),
		nq:      query.NumStates(),
		W:       (query.NumStates() + 63) / 64,
		sc:      sc,
		ctx:     ctx,
		budget:  stepBudget,
	}
	s.gen = sc.nextGen()
	s.prepRows()
	sets := s.nc * s.W
	sc.visited = ensureU64(sc.visited, sets)
	clear(sc.visited[:sets])
	n := s.nc * s.nq
	var found bool
	switch algo {
	case SCC:
		sc.active = ensureU64(sc.active, sets)
		clear(sc.active[:sets])
		sc.index = ensureI32(sc.index, n)
		found = s.sccSearch()
	default:
		sc.built = ensureU32(sc.built, n)
		sc.adjOff = ensureI32(sc.adjOff, n)
		sc.adjEnd = ensureI32(sc.adjEnd, n)
		sc.adj = sc.adj[:0]
		sc.cycleSeen = ensureU32(sc.cycleSeen, 2*n)
		found = s.nestedSearch()
	}
	stats, stop := s.stats, s.stop
	*s = search{} // drop ctx/automata references before pooling
	scratchPool.Put(sc)
	if stop != nil {
		return false, stats, stop
	}
	return found, stats, nil
}

// Check is a convenience for one-shot use: it builds a Checker and
// runs a single query.
func Check(contract, query *buchi.BA) bool {
	return NewChecker(contract).Permits(query)
}

// search is the per-call state of one permission check. It lives
// inside the pooled scratch arena (scratch.srch), not on the heap.
type search struct {
	cc, qc  *buchi.BA
	checker *Checker
	nc, nq  int
	W       int // words per target row and per pair set: ⌈nq/64⌉

	sc  *scratch
	gen uint32

	stats Stats

	// abort plumbing: ctx (nil = uncancellable) is polled every
	// ctxPollMask+1 steps, budget ≤ 0 is unlimited, and stop latches
	// the abort reason so the kernels unwind promptly.
	ctx    context.Context
	budget int
	stop   error
}

// ctxPollMask amortizes the context check: an atomic-free counter test
// on every step, a ctx.Err() call every 256th. Product expansion steps
// are tens of nanoseconds, so cancellation latency stays ≪ 1ms.
const ctxPollMask = 0xff

// tick consumes one kernel step. It returns true when the search must
// abort — budget exhausted or context done — and latches the reason in
// s.stop so the kernels unwind at the next expansion.
func (s *search) tick() bool {
	if s.stop != nil {
		return true
	}
	s.stats.Steps++
	if s.budget > 0 && s.stats.Steps > s.budget {
		s.stop = ErrBudgetExceeded
		return true
	}
	if s.ctx != nil && s.stats.Steps&ctxPollMask == 0 {
		if s.ctx.Err() != nil {
			s.stop = ErrCanceled
			return true
		}
	}
	return false
}
