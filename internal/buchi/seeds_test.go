package buchi_test

import (
	"math/rand"
	"slices"
	"testing"

	"contractdb/internal/buchi"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/vocab"
)

// randomLabel draws a satisfiable conjunction over voc's four events:
// each event is absent, positive or negative with equal odds.
func randomLabel(rng *rand.Rand) buchi.Label {
	var l buchi.Label
	for ev := vocab.EventID(0); ev < 4; ev++ {
		switch rng.Intn(3) {
		case 1:
			l.Pos = l.Pos.With(ev)
		case 2:
			l.Neg = l.Neg.With(ev)
		}
	}
	return l
}

// randomRows draws an automaton with n states as raw rows: random
// final states and random edges, some of them exact duplicates of
// another and some subsumed by a weaker edge to the same target. The
// builder drops both kinds, so the automaton holds fewer edges than
// the rows.
func randomRows(rng *rand.Rand, n int) (rows [][]buchi.Edge, final []bool) {
	rows, final = make([][]buchi.Edge, n), make([]bool, n)
	for s := 0; s < n; s++ {
		final[s] = rng.Intn(3) == 0
		for e := rng.Intn(4); e > 0; e-- {
			to := buchi.StateID(rng.Intn(n))
			l := randomLabel(rng)
			rows[s] = append(rows[s], buchi.Edge{Label: l, To: to})
			switch rng.Intn(4) {
			case 0:
				rows[s] = append(rows[s], buchi.Edge{Label: l, To: to})
			case 1:
				rows[s] = append(rows[s], buchi.Edge{Label: l.And(randomLabel(rng)), To: to})
			}
		}
	}
	return rows, final
}

// naiveGraph answers the graph questions by brute force over raw rows:
// plus[s][t] reports a path of at least one edge from s to t.
type naiveGraph struct {
	init  buchi.StateID
	final []bool
	plus  [][]bool
}

func newNaiveGraph(init buchi.StateID, rows [][]buchi.Edge, final []bool) naiveGraph {
	g := naiveGraph{init: init, final: final, plus: make([][]bool, len(rows))}
	for s := range rows {
		seen := make([]bool, len(rows))
		var stack []buchi.StateID
		for _, e := range rows[s] {
			stack = append(stack, e.To)
		}
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[t] {
				continue
			}
			seen[t] = true
			for _, e := range rows[t] {
				stack = append(stack, e.To)
			}
		}
		g.plus[s] = seen
	}
	return g
}

// seeds marks the states on a cycle through a final state: s and some
// final f reach each other by nonempty paths.
func (g naiveGraph) seeds() []bool {
	out := make([]bool, len(g.plus))
	for s := range out {
		for f, fin := range g.final {
			out[s] = out[s] || fin && g.plus[s][f] && g.plus[f][s]
		}
	}
	return out
}

func (g naiveGraph) reachable() []bool {
	out := slices.Clone(g.plus[g.init])
	out[g.init] = true
	return out
}

// live marks the states from which a seed is reachable.
func (g naiveGraph) live() []bool {
	seeds := g.seeds()
	out := make([]bool, len(g.plus))
	for s := range out {
		for t, seed := range seeds {
			out[s] = out[s] || seed && (s == t || g.plus[s][t])
		}
	}
	return out
}

// TestSeedsCSRMatchPointer: the CSR graph walks give the seeds
// (OnAcceptingCycle), reachability, liveness and emptiness that a
// brute-force closure over the raw pointer rows ([][]Edge) gives —
// even when the rows held duplicate and subsumed edges the builder
// dropped.
func TestSeedsCSRMatchPointer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dropped := 0
	check := func(desc string, init buchi.StateID, rows [][]buchi.Edge, final []bool) {
		t.Helper()
		b := buchi.NewBuilder(len(rows))
		b.Init = init
		raw := 0
		for s, row := range rows {
			if final[s] {
				b.SetFinal(buchi.StateID(s))
			}
			for _, e := range row {
				b.AddEdge(buchi.StateID(s), e.Label, e.To)
			}
			raw += len(row)
		}
		a := b.BA()
		if a.NumEdges() < raw {
			dropped++
		}
		g := newNaiveGraph(init, rows, final)
		seeds, reach := g.seeds(), g.reachable()
		if got := a.OnAcceptingCycle(); !slices.Equal(got, seeds) {
			t.Fatalf("%s: seeds %v, naive search %v", desc, got, seeds)
		}
		if got := a.Reachable(); !slices.Equal(got, reach) {
			t.Fatalf("%s: reachability %v, naive search %v", desc, got, reach)
		}
		if got, want := a.CanReachAcceptingCycle(), g.live(); !slices.Equal(got, want) {
			t.Fatalf("%s: liveness %v, naive search %v", desc, got, want)
		}
		empty := true
		for s := range seeds {
			empty = empty && !(seeds[s] && reach[s])
		}
		if a.IsEmpty() != empty {
			t.Fatalf("%s: IsEmpty %v, naive search %v", desc, a.IsEmpty(), empty)
		}
	}
	for i := 0; i < 400; i++ {
		rows, final := randomRows(rng, 1+rng.Intn(12))
		check("random automaton", buchi.StateID(rng.Intn(len(rows))), rows, final)
	}
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 4}
	for i := 0; i < 150; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]buchi.Edge, a.NumStates())
		for s := range rows {
			rows[s] = slices.Collect(a.Edges(buchi.StateID(s)))
		}
		check("BA("+f.String()+")", a.Init, rows, a.Final)
	}
	if dropped == 0 {
		t.Fatal("no automaton had edges the builder drops; the generator no longer covers that case")
	}
}
