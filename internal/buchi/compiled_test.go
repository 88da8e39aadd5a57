package buchi

import (
	"testing"

	"contractdb/internal/vocab"
)

func TestCompileCSRInvariants(t *testing.T) {
	voc := vocab.MustFromNames("a", "b", "c")
	la, _ := voc.SetOf("a")
	lb, _ := voc.SetOf("b")

	b := NewBuilder(3)
	b.Events, _ = voc.SetOf("a", "b", "c")
	b.SetFinal(1)
	b.AddEdge(0, Label{Pos: la}, 1)
	b.AddEdge(0, Label{Pos: la}, 1)          // exact duplicate: dropped
	b.AddEdge(0, Label{Pos: la, Neg: lb}, 1) // subsumed by {a}: dropped
	b.AddEdge(0, Label{Pos: lb}, 2)
	b.AddEdge(2, True, 2)
	b.AddEdge(1, Label{Pos: la}, 0) // label shared with state 0: interned once

	before := BuildCount()
	c := b.BA()
	if BuildCount() != before+1 {
		t.Fatal("Builder.BA did not build through Flat.BA")
	}
	if c.NumStates() != 3 || c.Init != 0 || !c.Final[1] || c.Final[0] || c.Events != b.Events {
		t.Fatalf("state metadata not preserved: %+v", c)
	}
	if len(c.EdgeOff) != c.NumStates()+1 || c.EdgeOff[0] != 0 || int(c.EdgeOff[c.NumStates()]) != c.NumEdges() {
		t.Fatalf("EdgeOff malformed: %v", c.EdgeOff)
	}
	if got := c.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4 (duplicate and subsumed edges dropped)", got)
	}
	if got := c.EdgeOff[1] - c.EdgeOff[0]; got != 2 {
		t.Fatalf("state 0 has %d edges, want 2", got)
	}
	if c.MaxDeg != 2 {
		t.Fatalf("MaxDeg = %d, want 2", c.MaxDeg)
	}
	// {a} appears on edges of states 0 and 1 but must be interned once,
	// and labels are numbered by first use along the rows.
	if want := []Label{{Pos: la}, {Pos: lb}, True}; len(c.Labels) != 3 || c.Labels[0] != want[0] || c.Labels[1] != want[1] || c.Labels[2] != want[2] {
		t.Fatalf("Labels = %v, want %v", c.Labels, want)
	}
	for _, arr := range [][]int32{c.EdgeOff, c.EdgeTo, c.EdgeLabel} {
		if cap(arr) != len(arr) {
			t.Fatalf("an edge array has cap %d, len %d", cap(arr), len(arr))
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// adoptable returns a fresh, structurally valid automaton whose arrays
// nothing else shares, built as a snapshot load would hold it.
func adoptable() *BA {
	voc := vocab.MustFromNames("a", "b")
	a, _ := voc.Lookup("a")
	b, _ := voc.Lookup("b")
	bld := NewBuilder(3)
	bld.AddEdge(0, Label{Pos: vocab.Set(0).With(a)}, 1)
	bld.AddEdge(1, Label{Pos: vocab.Set(0).With(b)}, 2)
	bld.AddEdge(2, True, 2)
	bld.SetFinal(2)
	built := bld.BA()
	return &BA{
		Init:      built.Init,
		Final:     append([]bool(nil), built.Final...),
		Events:    built.Events,
		EdgeOff:   append([]int32(nil), built.EdgeOff...),
		EdgeTo:    append([]int32(nil), built.EdgeTo...),
		EdgeLabel: append([]int32(nil), built.EdgeLabel...),
		Labels:    append([]Label(nil), built.Labels...),
		MaxDeg:    built.MaxDeg,
	}
}

// TestAdoptCompiledValidates: Validate, the snapshot loader's only
// check on persisted automata, refuses arrays that break any
// structural invariant.
func TestAdoptCompiledValidates(t *testing.T) {
	if err := adoptable().Validate(); err != nil {
		t.Fatalf("untampered automaton refused: %v", err)
	}
	tamper := []struct {
		name string
		mod  func(c *BA)
	}{
		{"initial state", func(c *BA) { c.Init = StateID(c.NumStates() + 3) }},
		{"negative initial state", func(c *BA) { c.Init = -1 }},
		{"acceptance shape", func(c *BA) { c.Final = c.Final[:len(c.Final)-1] }},
		{"offset shape", func(c *BA) { c.EdgeOff = c.EdgeOff[:len(c.EdgeOff)-1] }},
		{"offset span", func(c *BA) { c.EdgeOff[len(c.EdgeOff)-1]++ }},
		{"offset order", func(c *BA) { c.EdgeOff[1], c.EdgeOff[2] = c.EdgeOff[2], c.EdgeOff[1] }},
		{"label shape", func(c *BA) { c.EdgeLabel = c.EdgeLabel[:len(c.EdgeLabel)-1] }},
		{"max degree", func(c *BA) { c.MaxDeg++ }},
		{"edge target", func(c *BA) { c.EdgeTo[0] = int32(c.NumStates() + 1) }},
		{"edge label id", func(c *BA) { c.EdgeLabel[0] = int32(len(c.Labels)) }},
		{"unsatisfiable label", func(c *BA) { c.Labels[0] = Label{Pos: 1, Neg: 1} }},
		{"foreign label events", func(c *BA) { c.Labels[0] = Label{Pos: 1 << 20} }},
	}
	for _, tc := range tamper {
		c := adoptable()
		tc.mod(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: tampered automaton validated without error", tc.name)
		}
	}
}

// TestShellRejectsCorruptCompiled: arrays adopted with an out-of-range
// initial state or edge target, a wrong MaxDeg, or no automaton at all
// are refused by Validate.
func TestShellRejectsCorruptCompiled(t *testing.T) {
	bad := adoptable()
	bad.Init = StateID(bad.NumStates() + 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted out-of-range initial state")
	}

	bad = adoptable()
	bad.EdgeTo[0] = int32(bad.NumStates() + 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted out-of-range edge target")
	}

	bad = adoptable()
	bad.MaxDeg++
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted wrong MaxDeg")
	}

	if err := (*BA)(nil).Validate(); err == nil {
		t.Fatal("accepted nil automaton")
	}
}
