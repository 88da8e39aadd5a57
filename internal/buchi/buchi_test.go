package buchi_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"contractdb/internal/buchi"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/vocab"
)

var voc = vocab.MustFromNames("a", "b", "c", "d")

func label(t *testing.T, s string) buchi.Label {
	t.Helper()
	l, err := buchi.ParseLabel(voc, s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLabelAlgebra(t *testing.T) {
	a := label(t, "a & !b")
	b := label(t, "b & c")
	if !a.Conflicts(b) {
		t.Error("a&!b must conflict with b&c")
	}
	c := label(t, "a & c")
	if a.Conflicts(c) {
		t.Error("a&!b does not conflict with a&c")
	}
	and := a.And(c)
	if !and.Pos.Has(mustID("a")) || !and.Pos.Has(mustID("c")) || !and.Neg.Has(mustID("b")) {
		t.Errorf("And produced %s", and.Format(voc))
	}
	if !a.And(b).Satisfiable() == false {
		// a&!b ∧ b&c contains b and ¬b.
		t.Error("conflicting conjunction must be unsatisfiable")
	}
	if buchi.True.Conflicts(a) {
		t.Error("true conflicts with nothing")
	}
}

func mustID(name string) vocab.EventID {
	id, ok := voc.Lookup(name)
	if !ok {
		panic(name)
	}
	return id
}

func TestLabelMatches(t *testing.T) {
	l := label(t, "a & !b")
	snapA, _ := voc.SetOf("a")
	snapAB, _ := voc.SetOf("a", "b")
	snapAC, _ := voc.SetOf("a", "c")
	if !l.Matches(snapA) || !l.Matches(snapAC) {
		t.Error("a&!b must match {a} and {a,c}")
	}
	if l.Matches(snapAB) {
		t.Error("a&!b must not match {a,b}")
	}
	if !buchi.True.Matches(0) {
		t.Error("true matches the empty snapshot")
	}
}

func TestLabelExpandAndContainment(t *testing.T) {
	// Example 11 of the paper: contract cites p, c, m; label is p ∧ c.
	v := vocab.MustFromNames("p", "c", "m", "r")
	cited, _ := v.SetOf("p", "c", "m")
	l, err := buchi.ParseLabel(v, "p & c")
	if err != nil {
		t.Fatal(err)
	}
	exp := l.Expand(cited)
	q1, _ := buchi.ParseLabel(v, "p & m")
	q2, _ := buchi.ParseLabel(v, "p & !c")
	q3, _ := buchi.ParseLabel(v, "c & r")
	if !q1.ContainedIn(exp) {
		t.Error("p & m must be contained in E(p & c)")
	}
	if q2.ContainedIn(exp) {
		t.Error("p & !c must not be contained in E(p & c)")
	}
	if q3.ContainedIn(exp) {
		t.Error("c & r cites an uncited event; must not be contained")
	}
}

func TestLabelCompatibleWith(t *testing.T) {
	v := vocab.MustFromNames("p", "c", "m", "r")
	cited, _ := v.SetOf("p", "c", "m")
	contract, _ := buchi.ParseLabel(v, "p & c")
	for _, c := range []struct {
		q    string
		want bool
	}{
		{"p & m", true},
		{"p & !c", false}, // conflicts
		{"c & r", false},  // cites uncited r
		{"true", true},
		{"!m", true},
	} {
		q, err := buchi.ParseLabel(v, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := contract.CompatibleWith(q, cited); got != c.want {
			t.Errorf("CompatibleWith(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestLabelFormatRoundTrip(t *testing.T) {
	if err := quick.Check(func(pos, neg uint8) bool {
		l := buchi.Label{
			Pos: vocab.Set(pos) & 0xF,
			Neg: vocab.Set(neg) & 0xF &^ (vocab.Set(pos) & 0xF),
		}
		back, err := buchi.ParseLabel(voc, l.Format(voc))
		return err == nil && back == l
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func buildSample() *buchi.BA {
	// init -> 1 -a-> 2 (final, self loop true); 3 unreachable;
	// 4 reachable dead end.
	a := buchi.NewBuilder(5)
	la, _ := buchi.ParseLabel(voc, "a")
	a.AddEdge(0, buchi.True, 1)
	a.AddEdge(1, la, 2)
	a.AddEdge(2, buchi.True, 2)
	a.AddEdge(1, la, 4)
	a.AddEdge(3, buchi.True, 2)
	a.SetFinal(2)
	return a.BA()
}

func TestReachableAndTrim(t *testing.T) {
	a := buildSample()
	reach := a.Reachable()
	if !reach[0] || !reach[1] || !reach[2] || reach[3] || !reach[4] {
		t.Errorf("Reachable = %v", reach)
	}
	trimmed, remap := a.Trim()
	if trimmed.NumStates() != 3 {
		t.Errorf("Trim kept %d states, want 3 (init, 1, 2)", trimmed.NumStates())
	}
	if remap[3] != -1 || remap[4] != -1 {
		t.Error("unreachable/dead states must be dropped")
	}
	if err := trimmed.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTrimEmptyLanguage(t *testing.T) {
	b := buchi.NewBuilder(2)
	b.AddEdge(0, buchi.True, 1) // no final state anywhere
	trimmed, _ := b.BA().Trim()
	if !trimmed.IsEmpty() {
		t.Error("automaton without finals must trim to empty")
	}
}

func TestOnAcceptingCycle(t *testing.T) {
	a := buildSample()
	on := a.OnAcceptingCycle()
	if !on[2] {
		t.Error("state 2 is a final self-loop")
	}
	if on[0] || on[1] || on[4] {
		t.Errorf("only state 2 is on an accepting cycle: %v", on)
	}
	can := a.CanReachAcceptingCycle()
	if !can[0] || !can[1] || !can[2] || can[4] {
		t.Errorf("CanReachAcceptingCycle = %v", can)
	}
}

func TestSCCs(t *testing.T) {
	b := buchi.NewBuilder(4)
	b.AddEdge(0, buchi.True, 1)
	b.AddEdge(1, buchi.True, 2)
	b.AddEdge(2, buchi.True, 1) // {1,2} strongly connected
	b.AddEdge(2, buchi.True, 3)
	comp, count := b.BA().SCCs()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[1] != comp[2] {
		t.Error("1 and 2 must share a component")
	}
	if comp[0] == comp[1] || comp[3] == comp[1] {
		t.Error("0 and 3 are their own components")
	}
	// Reverse-topological numbering: successors have smaller indices.
	if !(comp[0] > comp[1] && comp[1] > comp[3]) {
		t.Errorf("component numbering not reverse topological: %v", comp)
	}
}

// TestNormalizeSubsumption: building an automaton drops exact
// duplicates and subsumed edges, and keeps each row in canonical
// order.
func TestNormalizeSubsumption(t *testing.T) {
	b := buchi.NewBuilder(2)
	la, _ := buchi.ParseLabel(voc, "a")
	lab, _ := buchi.ParseLabel(voc, "a & b")
	labc, _ := buchi.ParseLabel(voc, "a & !c")
	b.AddEdge(0, lab, 1)  // subsumed by a
	b.AddEdge(0, la, 1)   // weakest, kept
	b.AddEdge(0, la, 1)   // duplicate
	b.AddEdge(0, labc, 1) // subsumed by a
	b.AddEdge(0, lab, 0)  // different target, kept
	got := slices.Collect(b.BA().Edges(0))
	if want := []buchi.Edge{{Label: lab, To: 0}, {Label: la, To: 1}}; !slices.Equal(got, want) {
		t.Fatalf("row 0 built as %v, want %v", got, want)
	}
}

func TestMergeAdjacentLabels(t *testing.T) {
	lab, _ := buchi.ParseLabel(voc, "a & b")
	lanb, _ := buchi.ParseLabel(voc, "a & !b")
	var m buchi.LabelMerger
	row, merged := m.Merge([]buchi.Edge{{Label: lab, To: 1}, {Label: lanb, To: 1}})
	if !merged || len(row) != 1 {
		t.Fatalf("merge kept %d edges (merged %v), want 1", len(row), merged)
	}
	la, _ := buchi.ParseLabel(voc, "a")
	if row[0].Label != la {
		t.Errorf("merged label = %s, want a", row[0].Label.Format(voc))
	}
}

// TestMergeAdjacentPreservesLanguage: random automata keep their
// language when every row is merged by the adjacency rule and the
// automaton is rebuilt.
func TestMergeAdjacentPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 4}
	for i := 0; i < 150; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		var m buchi.LabelMerger
		rows := buchi.Flat{Init: a.Init, Off: []int32{0}, Final: a.Final}
		for s := range a.NumStates() {
			row, _ := m.Merge(slices.Collect(a.Edges(buchi.StateID(s))))
			rows.Edges = append(rows.Edges, row...)
			rows.Next()
		}
		b := rows.BA(a.Events)
		for j := 0; j < 20; j++ {
			run := ltltest.Lasso(rng, 3, 3, 3)
			if a.AcceptsLasso(run) != b.AcceptsLasso(run) {
				t.Fatalf("the adjacency merge changed the language of BA(%s)", f)
			}
		}
	}
}

func TestIntersectMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := ltltest.Config{Atoms: []string{"a", "b"}, MaxDepth: 3}
	for i := 0; i < 150; i++ {
		f := ltltest.Expr(rng, cfg)
		g := ltltest.Expr(rng, cfg)
		fa, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		ga, err := ltl2ba.Translate(voc, g)
		if err != nil {
			t.Fatal(err)
		}
		prod := buchi.Intersect(fa, ga)
		for j := 0; j < 15; j++ {
			run := ltltest.Lasso(rng, 2, 2, 2)
			want := run.Eval(voc, f) && run.Eval(voc, g)
			if got := prod.AcceptsLasso(run); got != want {
				t.Fatalf("Intersect(BA(%s), BA(%s)) wrong on run: got %v want %v", f, g, got, want)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 4}
	for i := 0; i < 100; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		text := a.EncodeString(voc)
		back, err := buchi.DecodeString(text, voc)
		if err != nil {
			t.Fatalf("decode: %v\n%s", err, text)
		}
		if back.NumStates() != a.NumStates() || back.NumEdges() != a.NumEdges() ||
			back.Init != a.Init {
			t.Fatalf("round trip changed shape:\n%s\nvs\n%s", text, back.EncodeString(voc))
		}
		for j := 0; j < 10; j++ {
			run := ltltest.Lasso(rng, 3, 3, 3)
			if a.AcceptsLasso(run) != back.AcceptsLasso(run) {
				t.Fatalf("round trip changed the language")
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage",
		"ba states=0 init=0 final=",
		"ba states=2 init=5 final=",
		"ba states=2 init=0 final=7",
		"ba states=2 init=0 final=0\n0 -> 9 [a]\n",
	}
	for _, src := range cases {
		if _, err := buchi.DecodeString(src, voc); err == nil {
			t.Errorf("DecodeString(%q) succeeded, want error", src)
		}
	}
}

func TestValidate(t *testing.T) {
	b := buchi.NewBuilder(2)
	b.AddEdge(0, buchi.Label{Pos: 1, Neg: 1}, 1) // unsatisfiable label
	if err := b.BA().Validate(); err == nil {
		t.Error("Validate must reject unsatisfiable labels")
	}
}

func TestFindAcceptingLassoAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 4}
	found := 0
	for i := 0; i < 200; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		run, ok := a.FindAcceptingLasso()
		if ok != !a.IsEmpty() {
			t.Fatalf("FindAcceptingLasso ok=%v but IsEmpty=%v for %s", ok, a.IsEmpty(), f)
		}
		if ok {
			found++
			if !run.Eval(voc, f) {
				t.Fatalf("witness does not satisfy %s", f)
			}
		}
	}
	if found == 0 {
		t.Error("no witnesses exercised")
	}
}

func TestDotOutput(t *testing.T) {
	a := buildSample()
	dot := a.Dot(voc, "sample")
	for _, want := range []string{"digraph", "doublecircle", "s0 -> s1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q:\n%s", want, dot)
		}
	}
}
