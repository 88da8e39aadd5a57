package buchi

import (
	"cmp"
	"slices"

	"contractdb/internal/vocab"
)

// Compiled is the flat, execution-oriented form of a BA: a CSR
// (compressed sparse row) adjacency with interned labels, built once
// per automaton and consumed by the permission kernels. Relative to
// the pointer-rich BA it
//
//   - stores all edges in three parallel flat arrays (offset / target
//     / label id), so the product search walks contiguous memory,
//   - interns labels into a small deduplicated table, so per-label
//     work (the compatibility bitmasks of the permission package) is
//     done once per distinct label instead of once per edge, and
//   - re-applies Normalize's subsumed-edge elimination during the
//     flattening, so automata that skipped normalization (or grew
//     redundant edges through projection) never pay for dead edges in
//     the kernel inner loop.
//
// The compiled form is derived state, rebuilt from the BA on demand —
// but rebuilding it is exactly the cold-start flattening tax, so
// snapshots persist it and Load wraps it with ShellFromCompiled
// instead of re-deriving it. State identity is preserved
// — state s of the BA is state s of the Compiled — so
// registration-time precomputation indexed by StateID (seeds, Final)
// applies unchanged.
type Compiled struct {
	N      int
	Init   StateID
	Final  []bool
	Events vocab.Set

	// EdgeOff has length N+1; state s's edges occupy the index range
	// [EdgeOff[s], EdgeOff[s+1]) of EdgeTo and EdgeLabel.
	EdgeOff []int32
	// EdgeTo is the target state per edge.
	EdgeTo []int32
	// EdgeLabel is the index into Labels per edge.
	EdgeLabel []int32
	// Labels is the deduplicated label table. len(Labels) is typically
	// far smaller than len(EdgeTo): clause-product automata reuse the
	// same few conjunctions on many edges.
	Labels []Label
	// MaxDeg is the maximum out-degree, the sizing bound for per-state
	// bitmask rows.
	MaxDeg int
}

// NumEdges returns the total number of (deduplicated) transitions.
func (c *Compiled) NumEdges() int { return len(c.EdgeTo) }

// Deg returns state s's out-degree.
func (c *Compiled) Deg(s StateID) int { return int(c.EdgeOff[s+1] - c.EdgeOff[s]) }

// Compile flattens the automaton into its CSR form. The source BA is
// not modified. Edges are sorted, exact duplicates dropped, and
// subsumed edges eliminated with the same language-preserving rule
// Normalize applies (a weaker label to the same target makes the
// stronger one redundant, for acceptance and for simultaneous-lasso
// existence alike).
func Compile(a *BA) *Compiled {
	a.EnsureEdges()
	compileCount.Add(1)
	n := a.NumStates()
	c := &Compiled{
		N:       n,
		Init:    a.Init,
		Final:   append([]bool(nil), a.Final...),
		Events:  a.Events,
		EdgeOff: make([]int32, n+1),
	}
	labelID := make(map[Label]int32)
	var buf []Edge
	for s, out := range a.Out {
		c.EdgeOff[s] = int32(len(c.EdgeTo))
		if len(out) == 0 {
			continue
		}
		buf = append(buf[:0], out...)
		for _, e := range CanonicalEdges(buf) {
			id, ok := labelID[e.Label]
			if !ok {
				id = int32(len(c.Labels))
				c.Labels = append(c.Labels, e.Label)
				labelID[e.Label] = id
			}
			c.EdgeTo = append(c.EdgeTo, int32(e.To))
			c.EdgeLabel = append(c.EdgeLabel, id)
		}
		if d := int(int32(len(c.EdgeTo)) - c.EdgeOff[s]); d > c.MaxDeg {
			c.MaxDeg = d
		}
	}
	c.EdgeOff[n] = int32(len(c.EdgeTo))
	return c
}

// CanonicalEdges brings one state's out-edges into the canonical
// compiled order — sorted by (target, literal count, label) — and
// drops exact duplicates and subsumed edges. The slice is reordered in
// place and the kept prefix returned. The result is the unique minimal
// edge set per target, so any two language-equal rows canonicalize
// identically; the quotient derivation in internal/bisim relies on
// this to reproduce, without flattening, exactly what Compile would
// build.
func CanonicalEdges(buf []Edge) []Edge {
	return canonicalize(buf, func(e Edge) Edge { return e })
}

// TaggedEdge is an edge carrying a caller-defined tag, such as the
// index of its label in a deduplicated table, through
// CanonicalTaggedEdges.
type TaggedEdge struct {
	Edge
	Tag int32
}

// CanonicalTaggedEdges is CanonicalEdges for tagged edges: each kept
// edge keeps its tag. Equal labels must carry equal tags, since which
// of two identical edges survives is unspecified.
func CanonicalTaggedEdges(buf []TaggedEdge) []TaggedEdge {
	return canonicalize(buf, func(e TaggedEdge) Edge { return e.Edge })
}

func canonicalize[E any](buf []E, edge func(E) Edge) []E {
	slices.SortFunc(buf, func(x, y E) int {
		a, b := edge(x), edge(y)
		if c := cmp.Compare(a.To, b.To); c != 0 {
			return c
		}
		// Weakest labels first: they subsume.
		if c := cmp.Compare(a.Label.LiteralCount(), b.Label.LiteralCount()); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Label.Pos, b.Label.Pos); c != 0 {
			return c
		}
		return cmp.Compare(a.Label.Neg, b.Label.Neg)
	})
	kept := buf[:0]
	groupStart := 0 // first kept index of the current To-group
	for i, x := range buf {
		e := edge(x)
		if i > 0 && e.To != edge(buf[i-1]).To {
			groupStart = len(kept)
		}
		subsumed := false
		for _, k := range kept[groupStart:] {
			if edge(k).Label.ContainedIn(e.Label) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			kept = append(kept, x)
		}
	}
	return kept
}

// Compiled returns the automaton's compiled form, building it on first
// use (concurrency-safe; later calls return the cached value). It must
// only be called once construction of the automaton is complete:
// mutating a BA after its first Compiled call leaves the compiled form
// stale, which the kernels treat as a programming error.
func (a *BA) Compiled() *Compiled {
	a.compileOnce.Do(func() { a.compiled = Compile(a) })
	return a.compiled
}
