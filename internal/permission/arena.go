package permission

import "sync"

// scratch is the reusable per-search arena. Every piece of working
// memory a Permits call needs — pair sets, SCC bookkeeping, the target
// rows, the explicit DFS stacks — lives here, so a steady-state
// candidate check allocates nothing: the arrays grow to the largest
// product seen and are then reused. The pair sets are cleared per
// check (W words per contract state); everything sized by the product
// is either valid only where a pair set says so (index) or stamped
// with a generation counter, so "reset between searches" is an O(1)
// bump instead of an O(|product|) clear.
//
// Arenas are pooled; PermitsCtx takes one from scratchPool and returns
// it when done, so concurrent checkers (the core worker pool) each get
// their own without any per-call allocation once the pool is warm.
type scratch struct {
	// srch is the search state itself. Embedding it here keeps the
	// per-call search struct off the heap: PermitsCtx reuses this slot
	// instead of allocating one.
	srch search

	// Pair sets: bit qs of words [cs*W, (cs+1)*W) is pair (cs, qs).
	visited []uint64 // expanded pairs (both kernels)
	active  []uint64 // SCC: pairs whose component is not complete
	index   []int32  // SCC: product pair → DFS index (valid once visited)

	// gen stamps labelGen and built; an entry is set iff it holds the
	// current generation. Bumped once per search.
	gen uint32

	// cycleGen stamps cycleSeen; bumped once per nested cycle search,
	// so all knots of one outer DFS share the array without clears.
	cycleGen  uint32
	cycleSeen []uint32 // (pair<<1|flag) → generation visited

	// Target rows (see prepRows / fillLabel).
	qlOK     []bool   // query label → cites only contract-vocabulary events
	rows     []uint64 // (contract label × query state) → target-state bitset
	labelGen []uint32 // contract label → generation its rows were filled

	// Memoized product adjacency (NestedDFS; see (*search).succ). A
	// pair's successor list is derived from the rows on its first
	// expansion and reused on every revisit — the nested cycle
	// searches re-expand pairs many times per check.
	built  []uint32 // product pair → generation its successor list was built
	adjOff []int32  // product pair → start of its list in adj
	adjEnd []int32  // product pair → end of its list in adj
	adj    []int32  // concatenated lists: (target pair)<<1 | target contract-final bit

	// Explicit stacks. Written back after every search so grown
	// capacity is retained across reuses.
	stack    []int32 // outer-DFS worklist
	cstack   []int32 // nested cycle-search worklist
	sccStack []int32 // SCC: active pairs in DFS order
	roots    []root  // SCC: Couvreur root stack
	frames   []frame // SCC: DFS cursor frames
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// nextGen advances the search generation. On the (once per 2^32
// searches) wraparound it clears the stamped arrays so stale marks
// from a previous epoch can never alias the new generation; gen is
// therefore always ≥ 1 and a zeroed (freshly grown) entry is never
// "set".
func (sc *scratch) nextGen() uint32 {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.built)
		clear(sc.labelGen)
		sc.gen = 1
	}
	return sc.gen
}

// nextCycleGen is nextGen for the nested-cycle-search array.
func (sc *scratch) nextCycleGen() uint32 {
	sc.cycleGen++
	if sc.cycleGen == 0 {
		clear(sc.cycleSeen)
		sc.cycleGen = 1
	}
	return sc.cycleGen
}

// The ensure helpers grow a scratch array to at least n elements,
// reusing the existing backing store when it is already big enough.
// Growth allocates zeroed storage (never a reslice over stale data),
// which the generation discipline relies on.

func ensureU32(buf []uint32, n int) []uint32 {
	if len(buf) >= n {
		return buf
	}
	return make([]uint32, n)
}

func ensureI32(buf []int32, n int) []int32 {
	if len(buf) >= n {
		return buf
	}
	return make([]int32, n)
}

func ensureU64(buf []uint64, n int) []uint64 {
	if len(buf) >= n {
		return buf
	}
	return make([]uint64, n)
}

func ensureBool(buf []bool, n int) []bool {
	if len(buf) >= n {
		return buf
	}
	return make([]bool, n)
}
