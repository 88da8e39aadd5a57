package buchi

import (
	"slices"
	"sync"
)

// Condensation is the automaton's transition graph grouped into
// strongly connected components, in the two shapes the prefilter's
// pruning condition (paper Algorithm 1) walks. Labels are indexes into
// the automaton's label table, so a walker can evaluate each
// distinct label once.
type Condensation struct {
	// Comp is the component of every state, numbered as SCCs numbers
	// them (a component's successors have smaller indices); Count is
	// the number of components.
	Comp  []int
	Count int
	// Cross lists every edge between two components, sources in
	// decreasing component order: walking it front to back visits a
	// component's incoming edges before its outgoing ones.
	Cross []CrossEdge
	// Knots lists, for each final state entered by an edge from its
	// own component, the distinct labels of those edges: the
	// transitions that can close a lasso cycle at the state.
	Knots []Knot
}

// CrossEdge is an edge between two components.
type CrossEdge struct {
	From, To int // components
	Label    int32
}

// Knot is one final state's cycle-closing edges.
type Knot struct {
	Comp   int
	Labels []int32
}

// Condensation returns the automaton's condensation, building it on
// first use (concurrency-safe; later calls return the cached value). A
// query automaton served again from the compile cache is analysed
// once.
func (a *BA) Condensation() *Condensation {
	a.condOnce.Do(func() { a.cond = condense(a) })
	return a.cond
}

func condense(c *BA) *Condensation {
	n := c.NumStates()
	sc := condensePool.Get().(*condenseScratch)
	if n <= maxPooled {
		defer condensePool.Put(sc)
	}
	comp, count := sc.scc.walk(c.EdgeOff, c.EdgeTo)
	sc.order, sc.knot = grow(sc.order, n), grow(sc.knot, n)
	cross := 0
	for s := range sc.order {
		sc.order[s], sc.knot[s] = StateID(s), 0
		for e := c.EdgeOff[s]; e < c.EdgeOff[s+1]; e++ {
			if comp[c.EdgeTo[e]] != comp[s] {
				cross++
			}
		}
	}
	slices.SortStableFunc(sc.order, func(x, y StateID) int { return comp[y] - comp[x] })
	d := &Condensation{Comp: slices.Clone(comp), Count: count, Cross: make([]CrossEdge, 0, cross)}
	for _, s := range sc.order {
		for e := c.EdgeOff[s]; e < c.EdgeOff[s+1]; e++ {
			to, lab := StateID(c.EdgeTo[e]), c.EdgeLabel[e]
			if comp[to] != comp[s] {
				d.Cross = append(d.Cross, CrossEdge{From: comp[s], To: comp[to], Label: lab})
				continue
			}
			if !c.Final[to] {
				continue
			}
			if sc.knot[to] == 0 { // knot[to] is its Knots index + 1
				d.Knots = append(d.Knots, Knot{Comp: comp[to]})
				sc.knot[to] = int32(len(d.Knots))
			}
			k := &d.Knots[sc.knot[to]-1]
			if !slices.Contains(k.Labels, lab) {
				k.Labels = append(k.Labels, lab)
			}
		}
	}
	return d
}

// condenseScratch is condense's working memory, pooled: the SCC walk,
// the component order and the knot index, none of which the
// condensation keeps. One sized for more than maxPooled states is
// dropped instead.
type condenseScratch struct {
	scc   Tarjan
	order []StateID
	knot  []int32
}

var condensePool = sync.Pool{New: func() any { return new(condenseScratch) }}
