package buchi

import "slices"

// Condensation is the automaton's transition graph grouped into
// strongly connected components, in the two shapes the prefilter's
// pruning condition (paper Algorithm 1) walks. Labels are indexes into
// the compiled form's label table, so a walker can evaluate each
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
// first use from the compiled form (concurrency-safe; later calls
// return the cached value). Like Compiled, it must only be called once
// construction of the automaton is complete. A query automaton shared
// by every shard, or served again from the compile cache, is analysed
// once.
func (a *BA) Condensation() *Condensation {
	a.condOnce.Do(func() { a.cond = condense(a) })
	return a.cond
}

func condense(a *BA) *Condensation {
	c := a.Compiled()
	comp, count := a.SCCs()
	order := make([]StateID, c.N)
	for s := range order {
		order[s] = StateID(s)
	}
	slices.SortStableFunc(order, func(x, y StateID) int { return comp[y] - comp[x] })
	d := &Condensation{Comp: comp, Count: count}
	knot := make(map[StateID]int)
	for _, s := range order {
		for e := c.EdgeOff[s]; e < c.EdgeOff[s+1]; e++ {
			to, lab := StateID(c.EdgeTo[e]), c.EdgeLabel[e]
			if comp[to] != comp[s] {
				d.Cross = append(d.Cross, CrossEdge{From: comp[s], To: comp[to], Label: lab})
				continue
			}
			if !c.Final[to] {
				continue
			}
			i, ok := knot[to]
			if !ok {
				i = len(d.Knots)
				knot[to] = i
				d.Knots = append(d.Knots, Knot{Comp: comp[to]})
			}
			if !slices.Contains(d.Knots[i].Labels, lab) {
				d.Knots[i].Labels = append(d.Knots[i].Labels, lab)
			}
		}
	}
	return d
}
