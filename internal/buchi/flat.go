package buchi

import "slices"

// Flat is an automaton in CSR form, for code that builds many
// automata and wants to reuse their memory: state s's transitions are
// Edges[Off[s]:Off[s+1]], and Final holds the accepting states (it may
// stay empty while a builder has no use for it). A builder appends a
// state's edges to Edges and ends the state with Next; Reset keeps
// every slab's capacity, so a Flat reused across automata allocates
// only while it grows.
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

// Normalize is BA.Normalize on the flat form.
func (f *Flat) Normalize() {
	f.Rewrite(func(row []Edge) []Edge {
		if len(row) < 2 {
			return row
		}
		return CanonicalEdges(row)
	})
}

// BA returns f as a BA sized exactly: its rows share one edge slab,
// and a row without transitions is nil, as AddEdge leaves it.
func (f *Flat) BA() *BA {
	n := f.NumStates()
	a := &BA{Init: f.Init, Final: make([]bool, n), Out: make([][]Edge, n)}
	copy(a.Final, f.Final)
	edges := append([]Edge(nil), f.Edges...)
	for s := range a.Out {
		if lo, hi := f.Off[s], f.Off[s+1]; lo < hi {
			a.Out[s] = edges[lo:hi:hi]
		}
	}
	return a
}

// Flatten copies a into f, which it resets first.
func (f *Flat) Flatten(a *BA) {
	a.EnsureEdges()
	f.Reset()
	f.Init, f.Final = a.Init, append(f.Final, a.Final...)
	for _, out := range a.Out {
		f.Edges = append(f.Edges, out...)
		f.Next()
	}
}

// Flat returns the components of f's transition graph, numbered as
// SCCs numbers them. comp is t's memory, valid until t's next walk,
// as is Order's.
func (t *Tarjan) Flat(f *Flat) (comp []int, count int) {
	return t.walk(targets{off: f.Off, edges: f.Edges}, f.NumStates())
}
