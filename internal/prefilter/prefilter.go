// Package prefilter implements the paper's first indexing technique
// (§4): a registration-time index over contract transition labels that
// lets the broker evaluate a *pruning condition* extracted from the
// query automaton and run the expensive permission algorithm only on
// the surviving candidate contracts.
//
// The index is the trie-like DAG of §4.2 keyed by literal sets up to a
// configurable size K. A node labeled with literal set l maps to the
// set of contracts having at least one transition whose expansion E(γ)
// — the label's literals plus both polarities of every other event the
// contract cites — contains l. Under that encoding, "some contract
// label is compatible with query label λ" is exactly "the contract is
// in the node of λ's literals", so candidate retrieval never scans the
// label database.
//
// Pruning conditions follow Algorithm 1: a disjunction over the query
// automaton's final states of (cycle condition ∧ path-from-init
// condition), where the path condition is a memoized backward
// traversal whose cycle guard returns the universal set. The guard
// only ever enlarges results, so the candidate set is a superset of
// the permitting set — soundness and completeness of the overall
// system are preserved (§4.2).
package prefilter

import (
	"math/bits"

	"contractdb/internal/bitset"
	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// DefaultK is the default maximum literal-set size indexed. Figure 3
// of the paper depicts two levels; most query-lasso labels cite one or
// two literals, which this covers exactly.
const DefaultK = 2

// Index is the prefilter index. It is not safe for concurrent
// mutation; the broker engine serializes registration.
type Index struct {
	k     int
	n     int // contracts registered so far (ids are 0..n-1)
	nodes map[buchi.Label][]uint64
}

// New returns an empty index retaining literal sets up to size k
// (k < 1 falls back to DefaultK).
func New(k int) *Index {
	if k < 1 {
		k = DefaultK
	}
	return &Index{k: k, nodes: make(map[buchi.Label][]uint64)}
}

// K returns the index's literal-set size limit.
func (ix *Index) K() int { return ix.k }

// Len returns the number of contracts registered.
func (ix *Index) Len() int { return ix.n }

// NodeCount returns the number of literal-set nodes materialized.
func (ix *Index) NodeCount() int { return len(ix.nodes) }

// ApproxBytes estimates the index's memory footprint, for the §7.4
// index-size measurements.
func (ix *Index) ApproxBytes() int {
	total := 0
	for _, words := range ix.nodes {
		total += 16 /* key */ + 8*len(words)
	}
	return total
}

// Insert registers a contract automaton under the given id. Ids must
// be dense and increasing (the broker assigns them); re-registering an
// id extends its node memberships.
func (ix *Index) Insert(id int, a *buchi.BA) {
	ix.InsertPrepared(id, Prepare(a, ix.k))
}

// Prepared is the id-independent part of one contract's index
// insertion: the set of literal-set nodes the contract's label
// expansions touch. Enumerating it is the expensive half of Insert —
// every subset of every expansion up to size k — and it needs neither
// the contract's id nor the index, so the bulk-ingest path computes it
// on the registration worker pool and leaves only bitset merges on the
// serialized path.
type Prepared struct {
	touched []buchi.Label
}

// Prepare enumerates the literal-set nodes automaton a touches at
// depth k. The result is reusable across indexes of the same depth.
func Prepare(a *buchi.BA, k int) Prepared {
	if k <= 0 {
		k = DefaultK
	}
	a.EnsureEdges() // shells: the walk below reads the adjacency
	// Distinct expansions, not distinct labels: E(γ) collapses labels
	// differing only in literals the contract leaves free.
	expansions := make(map[buchi.Label]struct{})
	for _, out := range a.Out {
		for _, e := range out {
			expansions[e.Label.Expand(a.Events)] = struct{}{}
		}
	}
	touched := make(map[buchi.Label]struct{})
	for exp := range expansions {
		lits := literalsOf(exp)
		forEachSubset(lits, k, func(l buchi.Label) {
			touched[l] = struct{}{}
		})
	}
	p := Prepared{touched: make([]buchi.Label, 0, len(touched))}
	for l := range touched {
		p.touched = append(p.touched, l)
	}
	return p
}

// PrepareCompiled is Prepare off the compiled CSR form: the label
// table already holds exactly the distinct labels appearing on kept
// edges, so the enumeration needs neither the pointer adjacency nor
// an Out materialization. For a registered (normalized) automaton it
// touches exactly the nodes Prepare would — the load path uses it to
// rebuild the index from snapshot-adopted compiled forms without
// waking any shell automaton.
func PrepareCompiled(c *buchi.Compiled, k int) Prepared {
	if k <= 0 {
		k = DefaultK
	}
	expansions := make(map[buchi.Label]struct{}, len(c.Labels))
	for _, l := range c.Labels {
		expansions[l.Expand(c.Events)] = struct{}{}
	}
	touched := make(map[buchi.Label]struct{})
	for exp := range expansions {
		lits := literalsOf(exp)
		forEachSubset(lits, k, func(l buchi.Label) {
			touched[l] = struct{}{}
		})
	}
	p := Prepared{touched: make([]buchi.Label, 0, len(touched))}
	for l := range touched {
		p.touched = append(p.touched, l)
	}
	return p
}

// InsertPrepared merges a prepared insertion under the given id. The
// preparation must have been computed at this index's depth K.
func (ix *Index) InsertPrepared(id int, p Prepared) {
	if id >= ix.n {
		ix.n = id + 1
	}
	w := id / 64
	bit := uint64(1) << uint(id%64)
	for _, l := range p.touched {
		words := ix.nodes[l]
		for len(words) <= w {
			words = append(words, 0)
		}
		words[w] |= bit
		ix.nodes[l] = words
	}
}

// Remove deletes contract id and renumbers every later contract down
// by one, leaving the index a dense re-insertion of the survivors
// would build: each node drops the id's bit and shifts the bits above
// it, and a node no survivor touches goes. It costs a pass over the
// nodes, and no label enumeration.
func (ix *Index) Remove(id int) {
	w, b := id/64, uint(id%64)
	for l, words := range ix.nodes {
		if w < len(words) {
			words[w] = words[w]&(1<<b-1) | words[w]>>(b+1)<<b
			for i := w + 1; i < len(words); i++ {
				words[i-1] |= words[i] << 63
				words[i] >>= 1
			}
		}
		empty := true
		for _, word := range words {
			empty = empty && word == 0
		}
		if empty {
			delete(ix.nodes, l)
		}
	}
	ix.n--
}

// literal is one polarized event.
type literal struct {
	event vocab.EventID
	neg   bool
}

func literalsOf(l buchi.Label) []literal {
	out := make([]literal, 0, l.LiteralCount())
	l.Pos.ForEach(func(id vocab.EventID) bool {
		out = append(out, literal{event: id})
		return true
	})
	l.Neg.ForEach(func(id vocab.EventID) bool {
		out = append(out, literal{event: id, neg: true})
		return true
	})
	return out
}

// forEachSubset enumerates every subset of lits of size ≤ k as a
// Label.
func forEachSubset(lits []literal, k int, fn func(buchi.Label)) {
	var rec func(start int, depth int, cur buchi.Label)
	rec = func(start, depth int, cur buchi.Label) {
		fn(cur)
		if depth == k {
			return
		}
		for i := start; i < len(lits); i++ {
			next := cur
			if lits[i].neg {
				next.Neg = next.Neg.With(lits[i].event)
			} else {
				next.Pos = next.Pos.With(lits[i].event)
			}
			rec(i+1, depth+1, next)
		}
	}
	rec(0, 0, buchi.Label{})
}

// S returns the candidate set S'(λ): contracts containing a label
// compatible with λ, possibly over-approximated when λ has more
// literals than the index depth K (§4.2). The result has capacity
// Len().
func (ix *Index) S(l buchi.Label) bitset.Set {
	if l.LiteralCount() <= ix.k {
		// The empty literal set is compatible with every transition;
		// its node holds every contract with at least one transition.
		return ix.nodeSet(l)
	}
	lits := literalsOf(l)
	// Over-depth lookup: intersect the node sets of consecutive
	// chunks of ≤ k literals. Every chunk set is a superset of S(λ),
	// hence so is their intersection.
	result := bitset.All(ix.n)
	for start := 0; start < len(lits); start += ix.k {
		end := start + ix.k
		if end > len(lits) {
			end = len(lits)
		}
		var chunk buchi.Label
		for _, lit := range lits[start:end] {
			if lit.neg {
				chunk.Neg = chunk.Neg.With(lit.event)
			} else {
				chunk.Pos = chunk.Pos.With(lit.event)
			}
		}
		result.IntersectWith(ix.nodeSet(chunk))
	}
	return result
}

func (ix *Index) nodeSet(l buchi.Label) bitset.Set {
	out := bitset.New(ix.n)
	words, ok := ix.nodes[l]
	if !ok {
		return out
	}
	for i := 0; i < len(words) && i*64 < ix.n; i++ {
		for w, base := words[i], i*64; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if base+b < ix.n {
				out.Add(base + b)
			}
		}
	}
	return out
}

// Candidates evaluates the pruning condition of the query automaton
// against the index (Algorithm 1) and returns the candidate contract
// set. The result is guaranteed to contain every contract that permits
// the query.
//
// The automaton's side of the work — its components, the edges that
// cross them and the edges that close cycles at final states — is the
// automaton's memoized Condensation, so a query fanned out to every
// shard, or served again from the compile cache, is analysed once.
// What remains is index lookups, once per distinct label.
func (ix *Index) Candidates(q *buchi.BA) bitset.Set {
	result := bitset.New(ix.n)
	if ix.n == 0 {
		return result
	}
	d := q.Condensation()
	labels := q.Compiled().Labels
	sets := make([]bitset.Set, len(labels)) // S per label, on first use
	s := func(id int32) bitset.Set {
		if sets[id].Len() == 0 {
			sets[id] = ix.S(labels[id])
		}
		return sets[id]
	}
	paths := ix.pathConditions(q, d, s)
	// A final state contributes its cycle condition — the union of S
	// over its cycle-closing edges (§4.1.1) — intersected with its
	// component's path condition.
	for _, k := range d.Knots {
		for _, id := range k.Labels {
			result.UnionWithIntersection(s(id), paths[k.Comp])
		}
	}
	return result
}

// pathConditions computes compute_path_from_init of Algorithm 1 for
// every strongly connected component of the query automaton: the set
// of contracts that could supply compatible labels along some simple
// path from the initial state into the component.
//
// Lasso prefixes are simple paths (§3.1), so labels on edges inside a
// cycle cannot be forced on a prefix; as in Example 9 ("we do not
// consider the self-loops … because their labels are not strictly
// necessary to build a prefix"), intra-component edges contribute no
// constraint. Working on the condensation makes that skip systematic
// and keeps the computation linear and memoizable — the literal
// pseudocode of Algorithm 1 re-explores simple paths per call, and
// naively memoizing its cycle-guarded recursion is either unsound
// (guard = ∅) or vacuous at self-looping final states (guard = all).
//
// The crossing edges come in decreasing source-component order
// (Tarjan numbers a component's successors with smaller indices), so
// every component's condition is complete before its edges out of it
// propagate it.
func (ix *Index) pathConditions(q *buchi.BA, d *buchi.Condensation, s func(int32) bitset.Set) []bitset.Set {
	out := make([]bitset.Set, d.Count)
	for c := range out {
		out[c] = bitset.New(ix.n)
	}
	out[d.Comp[q.Init]] = bitset.All(ix.n)
	for _, e := range d.Cross {
		out[e.To].UnionWithIntersection(out[e.From], s(e.Label))
	}
	return out
}
