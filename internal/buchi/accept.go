package buchi

import "contractdb/internal/ltl"

// AcceptsLasso reports whether the automaton accepts the ultimately-
// periodic run. This is the semantic oracle used by the tests: a run
// is accepted iff the product of the run's position graph with the
// automaton contains a reachable cycle through a final state.
func (a *BA) AcceptsLasso(run ltl.Lasso) bool {
	if len(run.Cycle) == 0 {
		return false
	}
	positions := run.Len()
	n := a.NumStates()
	succ := func(pos int) int {
		if pos == positions-1 {
			return len(run.Prefix)
		}
		return pos + 1
	}
	// Build the product as a throwaway BA so we can reuse the
	// accepting-cycle analysis: product state pos*n+s pairs position
	// pos with state s, and all its edges carry label true.
	var prod Flat
	prod.Reset()
	for pos := 0; pos < positions; pos++ {
		snapshot := run.At(pos)
		for s := 0; s < n; s++ {
			prod.Final = append(prod.Final, a.Final[s])
			for e := range a.Edges(StateID(s)) {
				if e.Label.Matches(snapshot) {
					prod.Edges = append(prod.Edges, Edge{Label: True, To: StateID(succ(pos)*n + int(e.To))})
				}
			}
			prod.Next()
		}
	}
	prod.Init = a.Init
	return !prod.BA(0).IsEmpty()
}

// FindAcceptingLasso returns a lasso run accepted by the automaton, or
// ok=false if the language is empty. Snapshots are chosen to satisfy
// the labels along a witness lasso path: positive literals are set,
// all other events are left false, which satisfies any satisfiable
// conjunction of literals. Useful for counterexample-style debugging
// and for cross-checking translation output against the LTL evaluator.
func (a *BA) FindAcceptingLasso() (ltl.Lasso, bool) {
	reach := a.Reachable()
	on := a.OnAcceptingCycle()
	// Pick the first reachable final state on an accepting cycle as the
	// knot; a final state always lies on its component's cycle.
	knot := StateID(-1)
	for s := range a.Final {
		if reach[s] && on[s] && a.Final[s] {
			knot = StateID(s)
			break
		}
	}
	if knot == -1 {
		return ltl.Lasso{}, false
	}
	prefix, ok := a.pathLabels(a.Init, knot)
	if !ok {
		return ltl.Lasso{}, false
	}
	cycle, ok := a.cycleLabels(knot)
	if !ok {
		return ltl.Lasso{}, false
	}
	run := ltl.Lasso{}
	for _, l := range prefix {
		run.Prefix = append(run.Prefix, l.Pos)
	}
	for _, l := range cycle {
		run.Cycle = append(run.Cycle, l.Pos)
	}
	return run, true
}

// pathLabels returns the labels along some path from from to to (empty
// if from == to), via BFS.
func (a *BA) pathLabels(from, to StateID) ([]Label, bool) {
	if from == to {
		return nil, true
	}
	type hop struct {
		prev  StateID
		label Label
	}
	back := make(map[StateID]hop)
	queue := []StateID{from}
	seen := make([]bool, a.NumStates())
	seen[from] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for e := range a.Edges(s) {
			if seen[e.To] {
				continue
			}
			seen[e.To] = true
			back[e.To] = hop{prev: s, label: e.Label}
			if e.To == to {
				var labels []Label
				for cur := to; cur != from; cur = back[cur].prev {
					labels = append(labels, back[cur].label)
				}
				reverse(labels)
				return labels, true
			}
			queue = append(queue, e.To)
		}
	}
	return nil, false
}

// cycleLabels returns the labels along some nonempty cycle from s back
// to s.
func (a *BA) cycleLabels(s StateID) ([]Label, bool) {
	for e := range a.Edges(s) {
		if e.To == s {
			return []Label{e.Label}, true
		}
		if rest, ok := a.pathLabels(e.To, s); ok {
			return append([]Label{e.Label}, rest...), true
		}
	}
	return nil, false
}

func reverse(ls []Label) {
	for i, j := 0, len(ls)-1; i < j; i, j = i+1, j-1 {
		ls[i], ls[j] = ls[j], ls[i]
	}
}
