package buchi

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"contractdb/internal/vocab"
)

// Flat is an automaton under construction, in CSR form: state s's
// transitions are Edges[Off[s]:Off[s+1]], and Final holds the
// accepting states (it may stay shorter than the state count while a
// builder has no use for it; missing entries are non-final). A builder
// appends a state's edges to Edges and ends the state with Next, then
// finishes the automaton with BA. Reset keeps every slab's capacity,
// so a Flat reused across automata allocates only while it grows.
type Flat struct {
	Init  StateID
	Off   []int32
	Edges []Edge
	Final []bool
}

// Reset empties f, keeping its slabs.
func (f *Flat) Reset() {
	f.Init, f.Off, f.Edges, f.Final = 0, append(f.Off[:0], 0), f.Edges[:0], f.Final[:0]
}

// NumStates returns the number of states ended with Next.
func (f *Flat) NumStates() int { return len(f.Off) - 1 }

// Next ends the state being built.
func (f *Flat) Next() { f.Off = append(f.Off, int32(len(f.Edges))) }

// AddMinimal adds e to the state being built unless a transition to
// the same target with a weaker label is there, dropping those e
// subsumes and merging it with one whose label differs in one
// literal's sign ((µ∧x) ∨ (µ∧¬x) = µ). A row built this way holds no
// two transitions to one target of which one subsumes the other, so
// one pass over it finds all three kinds of partner: a merge partner
// neither subsumes e nor is subsumed by it.
func (f *Flat) AddMinimal(e Edge) {
	lo := int(f.Off[len(f.Off)-1])
	for {
		adj, drop := -1, 0
		for i, g := range f.Edges[lo:] {
			switch {
			case g.To != e.To:
			case g.Label.ContainedIn(e.Label):
				return
			case e.Label.ContainedIn(g.Label):
				drop++
			case adj < 0 && g.Label.Vars() == e.Label.Vars() && (g.Label.Pos^e.Label.Pos).Len() == 1:
				adj = i - drop // its index once the subsumed are dropped
			}
		}
		if drop > 0 {
			row := slices.DeleteFunc(f.Edges[lo:], func(g Edge) bool { return g.To == e.To && e.Label.ContainedIn(g.Label) })
			f.Edges = f.Edges[:lo+len(row)]
		}
		if adj < 0 {
			f.Edges = append(f.Edges, e)
			return
		}
		d := f.Edges[lo+adj].Label.Pos ^ e.Label.Pos
		e.Label = Label{Pos: e.Label.Pos &^ d, Neg: e.Label.Neg &^ d}
		f.Edges = slices.Delete(f.Edges, lo+adj, lo+adj+1)
	}
}

// Row returns state s's transitions.
func (f *Flat) Row(s StateID) []Edge { return f.Edges[f.Off[s]:f.Off[s+1]] }

// Rewrite replaces every row by fn(row), which may reorder and rewrite
// the row in place and must return a prefix of it, and compacts the
// edge slab.
func (f *Flat) Rewrite(fn func([]Edge) []Edge) {
	lo := int32(0)
	for s := range f.NumStates() {
		hi := f.Off[s+1]
		row := fn(f.Edges[lo:hi:hi])
		lo = hi
		f.Off[s+1] = f.Off[s] + int32(copy(f.Edges[f.Off[s]:], row))
	}
	f.Edges = f.Edges[:f.Off[len(f.Off)-1]]
}

// Normalize brings every row into canonical order with CanonicalEdges.
func (f *Flat) Normalize() {
	f.Rewrite(func(row []Edge) []Edge {
		if len(row) < 2 {
			return row
		}
		return CanonicalEdges(row)
	})
}

// CanonicalEdges brings one state's out-edges into the canonical
// order — sorted by (target, literal count, label) — and drops exact
// duplicates and subsumed edges: an edge (s, λ, t) is redundant when a
// second edge (s, µ, t) exists whose literals are a subset of λ's —
// every snapshot enabling λ enables µ, so the automaton's language is
// unchanged, and since µ conflicts with no more query labels than λ,
// simultaneous-lasso existence is unchanged too. Products of clause
// automata generate large numbers of such edges. The slice is
// reordered in place and the kept prefix returned. The result is the
// unique minimal edge set per target, so any two language-equal rows
// canonicalize identically; the quotient derivation in internal/bisim
// relies on this to reproduce, without building from rows, exactly
// what Flat.BA would build.
func CanonicalEdges(buf []Edge) []Edge {
	slices.SortFunc(buf, func(a, b Edge) int {
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
	for i, e := range buf {
		if i > 0 && e.To != buf[i-1].To {
			groupStart = len(kept)
		}
		subsumed := false
		for _, k := range kept[groupStart:] {
			if k.Label.ContainedIn(e.Label) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			kept = append(kept, e)
		}
	}
	return kept
}

// builds counts automata built from rows (Flat.BA calls)
// process-wide. The cold-start tests assert a snapshot load builds
// none: it adopts every automaton's arrays as they are.
var builds atomic.Int64

// BuildCount returns the number of automata built from rows by this
// process so far. Tests use deltas; the absolute value is meaningless.
func BuildCount() int64 { return builds.Load() }

// maxPooled bounds, in entries, each table of the package's pooled
// scratches.
const maxPooled = 1 << 12

// labelPool holds the label tables BA interns with.
var labelPool = sync.Pool{New: func() any { return new(KeyTable) }}

// BA finishes f as an immutable automaton whose labels cite only
// events: it is the one way to build one from rows. Each row is first
// brought into canonical order by CanonicalEdges, in place; labels are
// then interned in order of first use along the rows. The edge arrays
// share one int32 slab, and every array is allocated at its final
// length. f may be reset and reused afterwards.
func (f *Flat) BA(events vocab.Set) *BA {
	builds.Add(1)
	f.Normalize()
	n, m := f.NumStates(), len(f.Edges)
	slab := make([]int32, n+1+2*m)
	a := &BA{
		Init:      f.Init,
		Final:     make([]bool, n),
		Events:    events,
		EdgeOff:   slab[: n+1 : n+1],
		EdgeTo:    slab[n+1 : n+1+m : n+1+m],
		EdgeLabel: slab[n+1+m:],
	}
	copy(a.Final, f.Final)
	copy(a.EdgeOff, f.Off)
	for s := range n {
		a.MaxDeg = max(a.MaxDeg, int(f.Off[s+1]-f.Off[s]))
	}
	ids := labelPool.Get().(*KeyTable)
	ids.Reset()
	labels := 0
	for i, e := range f.Edges {
		id := ids.ID([3]uint64{uint64(e.Label.Pos), uint64(e.Label.Neg)})
		labels = max(labels, int(id)+1)
		a.EdgeTo[i], a.EdgeLabel[i] = int32(e.To), id
	}
	if m <= maxPooled {
		labelPool.Put(ids)
	}
	a.Labels = make([]Label, labels)
	for i, e := range f.Edges {
		a.Labels[a.EdgeLabel[i]] = e.Label
	}
	return a
}

// Builder collects an automaton's transitions in any order, for code
// that does not build row by row: the text decoder, the tests. Its BA
// builds through Flat.BA.
type Builder struct {
	Init   StateID
	Final  []bool
	Events vocab.Set // grows with every label AddEdge is given
	rows   [][]Edge
}

// NewBuilder returns a builder of an automaton with n states, initial
// state 0, and no transitions or final states.
func NewBuilder(n int) *Builder {
	return &Builder{Final: make([]bool, n), rows: make([][]Edge, n)}
}

// AddEdge adds a transition.
func (b *Builder) AddEdge(from StateID, label Label, to StateID) {
	b.rows[from] = append(b.rows[from], Edge{Label: label, To: to})
	b.Events = b.Events.Union(label.Vars())
}

// SetFinal marks state s as accepting.
func (b *Builder) SetFinal(s StateID) { b.Final[s] = true }

// BA builds the automaton.
func (b *Builder) BA() *BA {
	f := Flat{Init: b.Init, Off: []int32{0}, Final: b.Final}
	for _, row := range b.rows {
		f.Edges = append(f.Edges, row...)
		f.Next()
	}
	return f.BA(b.Events)
}

// Flat returns the components of f's transition graph, numbered as
// SCCs numbers them. comp is t's memory, valid until t's next walk,
// as is Order's.
func (t *Tarjan) Flat(f *Flat) (comp []int, count int) {
	t.to = grow(t.to, len(f.Edges))
	for i, e := range f.Edges {
		t.to[i] = int32(e.To)
	}
	return t.walk(f.Off, t.to)
}
