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
// Each algorithm exists in two executions. The *compiled* kernels (the
// default; see compiled.go) run on the flat buchi.Compiled forms with
// precomputed edge-compatibility bitmasks and pooled scratch, and are
// what production queries use. The *interpreted* kernels walk the
// pointer-rich BA directly, re-testing label compatibility at every
// product edge; they are the readable reference the differential tests
// cross-validate against, selected with WithInterpreted.
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

	// Compiled-kernel counters, zero on the interpreted path.
	MaskBuilds int // compatibility mask matrices built (one per compiled check)
	StepsSaved int // label tests the masks avoided vs. the naive double loop
}

// Add accumulates another call's counters, for callers aggregating
// across many checks.
func (s *Stats) Add(o Stats) {
	s.PairsVisited += o.PairsVisited
	s.CycleSearches += o.CycleSearches
	s.CycleVisited += o.CycleVisited
	s.Steps += o.Steps
	s.MaskBuilds += o.MaskBuilds
	s.StepsSaved += o.StepsSaved
}

// Algorithm selects the search strategy. Both return identical
// verdicts (the tests cross-validate them); they differ in cost.
type Algorithm int

const (
	// SCC finds a simultaneous lasso with a single Tarjan pass over
	// the reachable product graph: permission holds iff some reachable
	// product component has an internal edge, a contract-final pair
	// and a query-final pair. This is Algorithm 2's nested search with
	// the memoization of §6.2.2 taken to its conclusion ("we can code
	// the whole procedure as a depth first visit, never visiting any
	// pair more than once") — linear in the product. The default.
	SCC Algorithm = iota
	// NestedDFS is the paper's Algorithm 2 as printed: an outer
	// product DFS that starts a flag-doubled nested cycle search at
	// every viable knot. Kept as the reference implementation and for
	// the ablation benchmarks.
	NestedDFS
)

// Checker holds a contract automaton with its registration-time
// precomputation, including the compiled CSR form the default kernels
// execute. A Checker is immutable after construction and safe for
// concurrent use.
type Checker struct {
	contract *buchi.BA
	// cc is the contract's compiled form, built once at registration.
	cc *buchi.Compiled
	// seeds[s] reports whether contract state s lies on a cycle
	// containing a contract-final state; only such states can anchor
	// the contract side of a simultaneous lasso cycle.
	seeds []bool
	// useSeeds disables the seed restriction for ablation studies; the
	// result is unchanged, only more nested searches run.
	useSeeds bool
	// interpreted selects the reference kernels over the compiled ones.
	interpreted bool
	algo        Algorithm
}

// Option configures a Checker.
type Option func(*Checker)

// WithoutSeeds disables the seeds optimization of §6.2.4. Results are
// identical; the option exists to measure the optimization's benefit.
// It only affects the NestedDFS algorithm.
func WithoutSeeds() Option { return func(c *Checker) { c.useSeeds = false } }

// WithAlgorithm selects the search strategy.
func WithAlgorithm(a Algorithm) Option { return func(c *Checker) { c.algo = a } }

// WithInterpreted selects the interpreted reference kernels, which
// walk the BA pointer graph and re-test label compatibility on every
// product edge. Verdicts are identical to the compiled kernels' (the
// differential tests enforce this); the option exists for
// cross-validation and for measuring what compilation buys.
func WithInterpreted() Option { return func(c *Checker) { c.interpreted = true } }

// WithSeeds installs a precomputed seed vector instead of running the
// SCC analysis at construction. The snapshot load path uses it:
// seeds were computed at registration and persisted, so adopting them
// keeps load free of per-contract graph analysis.
// The vector is trusted the same way the snapshot loader trusts the
// persisted edge set; only its length is checked.
func WithSeeds(seeds []bool) Option { return func(c *Checker) { c.seeds = seeds } }

// NewChecker precomputes the seed states and the compiled form of the
// contract automaton (registration-time work in the paper's
// architecture). The seed analysis reads a shell's CSR arrays, so a
// compiled-only automaton — a snapshot-loaded contract, any projection
// quotient — stays compiled-only unless the interpreted kernels are
// selected.
func NewChecker(contract *buchi.BA, opts ...Option) *Checker {
	c := &Checker{
		contract: contract,
		cc:       contract.Compiled(),
		useSeeds: true,
	}
	for _, o := range opts {
		o(c)
	}
	if c.seeds == nil {
		c.seeds = contract.OnAcceptingCycle()
	} else if len(c.seeds) != c.cc.N {
		// A wrong-length adopted vector would index out of range in the
		// kernels; recompute rather than trust it.
		c.seeds = contract.OnAcceptingCycle()
	}
	if c.interpreted {
		// The interpreted kernels walk the pointer adjacency.
		contract.EnsureEdges()
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
		contract: c.contract,
		query:    query,
		checker:  c,
		nc:       c.contract.NumStates(),
		nq:       query.NumStates(),
		sc:       sc,
		ctx:      ctx,
		budget:   stepBudget,
	}
	n := s.nc * s.nq
	sc.visited = ensureU32(sc.visited, n)
	var found bool
	if c.interpreted {
		s.prepEdgeOK()
		switch algo {
		case SCC:
			sc.onStack = ensureU32(sc.onStack, n)
			sc.index = ensureI32(sc.index, n)
			sc.low = ensureI32(sc.low, n)
			s.gen = sc.nextGen()
			found = s.sccSearch()
		default:
			sc.cycleSeen = ensureU32(sc.cycleSeen, 2*n)
			s.gen = sc.nextGen()
			found = s.nestedSearch()
		}
	} else {
		s.cc = c.cc
		s.qc = query.Compiled()
		s.gen = sc.nextGen()
		s.buildMasks()
		sc.built = ensureU32(sc.built, n)
		sc.adjOff = ensureI32(sc.adjOff, n)
		sc.adjEnd = ensureI32(sc.adjEnd, n)
		sc.adj = sc.adj[:0]
		switch algo {
		case SCC:
			sc.onStack = ensureU32(sc.onStack, n)
			sc.index = ensureI32(sc.index, n)
			sc.low = ensureI32(sc.low, n)
			found = s.compiledSCC()
		default:
			sc.cycleSeen = ensureU32(sc.cycleSeen, 2*n)
			found = s.compiledNested()
		}
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
	contract *buchi.BA
	query    *buchi.BA
	cc, qc   *buchi.Compiled // compiled path only
	checker  *Checker
	nc, nq   int
	W        int // mask row width in words (compiled path)

	sc  *scratch
	gen uint32

	// Aliases into the arena, bound per call.
	edgeOK []bool   // interpreted: flat query-edge vocabulary check
	qOff   []int32  // interpreted: edgeOK offset per query state
	masks  []uint64 // compiled: compatibility mask matrix

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

func (s *search) pair(cs, qs buchi.StateID) int { return int(cs)*s.nq + int(qs) }

// prepEdgeOK pre-resolves which query labels cite only contract events
// (condition (i) of compatibility) into the arena's flat edgeOK array;
// the interpreted kernels' per-pair check then reduces to a literal
// conflict test.
func (s *search) prepEdgeOK() {
	sc := s.sc
	sc.qOff = ensureI32(sc.qOff, s.nq)
	total := 0
	for q, out := range s.query.Out {
		sc.qOff[q] = int32(total)
		total += len(out)
	}
	sc.edgeOK = ensureBool(sc.edgeOK, total)
	for q, out := range s.query.Out {
		off := int(sc.qOff[q])
		for i, e := range out {
			sc.edgeOK[off+i] = e.Label.Vars().SubsetOf(s.contract.Events)
		}
	}
	s.edgeOK, s.qOff = sc.edgeOK, sc.qOff
}

// nestedSearch is the interpreted outer DFS of Algorithm 2: an
// explicit-stack enumeration of reachable product pairs that starts a
// nested cycle search at every viable knot.
func (s *search) nestedSearch() bool {
	sc := s.sc
	nq := s.nq
	gen := s.gen
	visited := sc.visited
	stack := append(sc.stack[:0], int32(s.pair(s.contract.Init, s.query.Init)))
	found := false
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[v] == gen {
			continue
		}
		if s.tick() {
			break
		}
		visited[v] = gen
		s.stats.PairsVisited++
		cs := buchi.StateID(int(v) / nq)
		qs := buchi.StateID(int(v) % nq)
		if s.query.Final[qs] && (!s.checker.useSeeds || s.checker.seeds[cs]) {
			s.stats.CycleSearches++
			if s.cycleSearch(cs, qs) {
				found = true
				break
			}
			if s.stop != nil {
				break
			}
		}
		off := int(s.qOff[qs])
		for _, ec := range s.contract.Out[cs] {
			for qi, eq := range s.query.Out[qs] {
				if !s.edgeOK[off+qi] || ec.Label.Conflicts(eq.Label) {
					continue
				}
				t := int32(s.pair(ec.To, eq.To))
				if visited[t] != gen {
					stack = append(stack, t)
				}
			}
		}
	}
	sc.stack = stack[:0]
	return found
}

// cycleSearch looks for a product cycle from the knot back to itself
// that passes through a pair whose contract state is final. The search
// space is the product graph doubled with a flag recording whether a
// contract-final pair has been seen since leaving the knot (the knot
// itself counts); memoizing (pair, flag) keeps the search linear.
// Nodes are encoded as pair<<1|flag in the arena's cycleSeen array.
func (s *search) cycleSearch(kc, kq buchi.StateID) bool {
	sc := s.sc
	cg := sc.nextCycleGen()
	seen := sc.cycleSeen
	start := int32(s.pair(kc, kq)) << 1
	if s.contract.Final[kc] {
		start |= 1
	}
	cstack := append(sc.cstack[:0], start)
	found := false
loop:
	for len(cstack) > 0 {
		nd := cstack[len(cstack)-1]
		cstack = cstack[:len(cstack)-1]
		if seen[nd] == cg {
			continue
		}
		if s.tick() {
			break
		}
		seen[nd] = cg
		s.stats.CycleVisited++
		flag := nd&1 != 0
		p := int(nd >> 1)
		cs := buchi.StateID(p / s.nq)
		qs := buchi.StateID(p % s.nq)
		off := int(s.qOff[qs])
		for _, ec := range s.contract.Out[cs] {
			for qi, eq := range s.query.Out[qs] {
				if !s.edgeOK[off+qi] || ec.Label.Conflicts(eq.Label) {
					continue
				}
				nflag := flag || s.contract.Final[ec.To]
				if ec.To == kc && eq.To == kq {
					// Closed the cycle: accept if a contract-final
					// pair occurred on it (the knot itself counts via
					// the start flag, the closing target via nflag).
					if nflag {
						found = true
						break loop
					}
					continue
				}
				key := int32(s.pair(ec.To, eq.To)) << 1
				if nflag {
					key |= 1
				}
				if seen[key] != cg {
					cstack = append(cstack, key)
				}
			}
		}
	}
	sc.cstack = cstack[:0]
	return found
}
