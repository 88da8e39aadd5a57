package buchi

// Intersect returns an automaton accepting exactly the runs accepted
// by both a and b. It is the standard two-flag product: the counter
// waits for a final state of a, then one of b, and completing the
// rotation is accepting. Product transitions exist only when the two
// labels do not conflict; their conjunction is the product label.
//
// Only states reachable from the initial product state are built.
//
// The query path never calls it: the translator folds conjunctions as
// generalized Büchi automata (internal/ltl2ba). core.DB.Explain builds
// its witness from it, and it is the tests' independent product
// oracle.
func Intersect(a, b *BA) *BA {
	nb := b.NumStates()
	type key int // (s*nb + t)*2 + flag
	mk := func(s, t StateID, flag int) key { return key((int(s)*nb+int(t))*2 + flag) }

	// States are numbered as they are discovered and expanded in that
	// order, so each expansion builds the next row.
	var out Flat
	out.Reset()
	ids := make(map[key]StateID)
	var queue []key
	intern := func(k key) StateID {
		if id, ok := ids[k]; ok {
			return id
		}
		id := StateID(len(ids))
		ids[k] = id
		queue = append(queue, k)
		return id
	}

	out.Init = intern(mk(a.Init, b.Init, 0))
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		flag := int(k) % 2
		rest := int(k) / 2
		s, t := StateID(rest/nb), StateID(rest%nb)

		next := flag
		if flag == 0 && a.Final[s] {
			next = 1
		} else if flag == 1 && b.Final[t] {
			next = 0
		}
		out.Final = append(out.Final, flag == 1 && b.Final[t])
		for ea := range a.Edges(s) {
			for eb := range b.Edges(t) {
				if ea.Label.Conflicts(eb.Label) {
					continue
				}
				out.Edges = append(out.Edges, Edge{Label: ea.Label.And(eb.Label), To: intern(mk(ea.To, eb.To, next))})
			}
		}
		out.Next()
	}
	return out.BA(a.Events.Union(b.Events))
}
