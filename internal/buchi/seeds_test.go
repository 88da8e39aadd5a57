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

// randomBA builds an automaton with n states, random final states and
// random edges. Some edges are exact duplicates of another, and some
// are subsumed by a weaker edge to the same target: Compile drops
// both kinds, so the CSR rows hold fewer edges than Out.
func randomBA(rng *rand.Rand, n int) *buchi.BA {
	a := buchi.New(n)
	for s := 0; s < n; s++ {
		if rng.Intn(3) == 0 {
			a.SetFinal(buchi.StateID(s))
		}
		for e := rng.Intn(4); e > 0; e-- {
			to := buchi.StateID(rng.Intn(n))
			l := randomLabel(rng)
			a.AddEdge(buchi.StateID(s), l, to)
			switch rng.Intn(4) {
			case 0:
				a.AddEdge(buchi.StateID(s), l, to)
			case 1:
				a.AddEdge(buchi.StateID(s), l.And(randomLabel(rng)), to)
			}
		}
	}
	return a
}

// TestSeedsCSRMatchPointer: the graph walks read a shell's CSR arrays
// and any other automaton's Out; on the same automaton both must give
// the same seeds (OnAcceptingCycle), reachability and emptiness — even
// when Out holds duplicate and subsumed edges the CSR rows dropped —
// and the CSR walk must not materialize the shell's Out.
func TestSeedsCSRMatchPointer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dropped := 0
	check := func(desc string, a *buchi.BA) {
		t.Helper()
		c := buchi.Compile(a)
		if c.NumEdges() < a.NumEdges() {
			dropped++
		}
		shell, err := buchi.ShellFromCompiled(c)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if got, want := shell.OnAcceptingCycle(), a.OnAcceptingCycle(); !slices.Equal(got, want) {
			t.Fatalf("%s: CSR seeds %v, pointer seeds %v", desc, got, want)
		}
		if got, want := shell.Reachable(), a.Reachable(); !slices.Equal(got, want) {
			t.Fatalf("%s: CSR reachability %v, pointer reachability %v", desc, got, want)
		}
		if shell.IsEmpty() != a.IsEmpty() {
			t.Fatalf("%s: emptiness disagrees between CSR and pointer walks", desc)
		}
		if shell.Out != nil {
			t.Fatalf("%s: the CSR walks materialized the shell's adjacency", desc)
		}
	}
	for i := 0; i < 400; i++ {
		check("random automaton", randomBA(rng, 1+rng.Intn(12)))
	}
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 4}
	for i := 0; i < 150; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		check("BA("+f.String()+")", a)
	}
	if dropped == 0 {
		t.Fatal("no automaton had edges Compile drops; the generator no longer covers that case")
	}
}
