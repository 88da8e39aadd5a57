package buchi

// Intersect returns an automaton accepting exactly the runs accepted
// by both a and b. It is the standard two-flag product: the counter
// waits for a final state of a, then one of b, and completing the
// rotation is accepting. Product transitions exist only when the two
// labels do not conflict; their conjunction is the product label.
//
// Only states reachable from the initial product state are
// materialized.
//
// No production path calls it: the translator folds conjunctions as
// generalized Büchi automata (internal/ltl2ba). It is the tests'
// independent product oracle.
func Intersect(a, b *BA) *BA {
	a.EnsureEdges()
	b.EnsureEdges()
	nb := b.NumStates()
	type key int // (s*nb + t)*2 + flag
	mk := func(s, t StateID, flag int) key { return key((int(s)*nb+int(t))*2 + flag) }

	out := New(0)
	ids := make(map[key]StateID)
	var queue []key
	intern := func(k key) StateID {
		if id, ok := ids[k]; ok {
			return id
		}
		id := out.AddState()
		ids[k] = id
		queue = append(queue, k)
		return id
	}

	start := mk(a.Init, b.Init, 0)
	out.Init = intern(start)
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		flag := int(k) % 2
		rest := int(k) / 2
		s, t := StateID(rest/nb), StateID(rest%nb)
		from := ids[k]

		next := flag
		if flag == 0 && a.Final[s] {
			next = 1
		} else if flag == 1 && b.Final[t] {
			next = 0
		}
		if flag == 1 && b.Final[t] {
			out.SetFinal(from)
		}
		for _, ea := range a.Out[s] {
			for _, eb := range b.Out[t] {
				if ea.Label.Conflicts(eb.Label) {
					continue
				}
				out.AddEdge(from, ea.Label.And(eb.Label), intern(mk(ea.To, eb.To, next)))
			}
		}
	}
	out.Events = a.Events.Union(b.Events)
	return out
}
