package buchi

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"contractdb/internal/vocab"
)

func adoptTestBA(t *testing.T) *BA {
	t.Helper()
	voc := vocab.MustFromNames("a", "b", "c")
	la, _ := voc.SetOf("a")
	lb, _ := voc.SetOf("b")
	a := New(3)
	a.Events, _ = voc.SetOf("a", "b", "c")
	a.Final[1] = true
	a.AddEdge(0, Label{Pos: la}, 1)
	a.AddEdge(0, Label{Pos: lb}, 2)
	a.AddEdge(1, Label{Pos: la, Neg: lb}, 0)
	a.AddEdge(2, True, 2)
	return a
}

// TestAdoptCompiledRoundTrip: a compiled form survives the gob wire
// (the snapshot encoding) and ShellFromCompiled wraps it in a BA that
// adopts it — no flattening — such that re-compiling the shell's
// materialized adjacency reproduces the original form exactly.
func TestAdoptCompiledRoundTrip(t *testing.T) {
	a := adoptTestBA(t)
	c := Compile(a)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatal(err)
	}
	var decoded *Compiled
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, decoded) {
		t.Fatalf("gob round trip changed the compiled form:\n got %+v\nwant %+v", decoded, c)
	}

	n0 := CompileCount()
	b, err := ShellFromCompiled(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if b.Compiled() != decoded {
		t.Error("ShellFromCompiled did not adopt the decoded form")
	}
	if d := CompileCount() - n0; d != 0 {
		t.Errorf("ShellFromCompiled + Compiled() flattened %d times, want 0", d)
	}

	// Materialization is exact: state s of the compiled form is state
	// s of the BA, so a from-scratch flattening agrees byte for byte.
	if rc := Compile(b); !reflect.DeepEqual(rc, c) {
		t.Errorf("recompiling the reconstruction diverges:\n got %+v\nwant %+v", rc, c)
	}
}

// TestAdoptCompiledValidates: a form that disagrees with the automaton
// on any structural invariant is rejected, and rejection leaves the
// automaton free to flatten normally.
func TestAdoptCompiledValidates(t *testing.T) {
	tamper := []struct {
		name string
		mod  func(c *Compiled)
	}{
		{"state count", func(c *Compiled) { c.N++ }},
		{"initial state", func(c *Compiled) { c.Init = 2 }},
		{"acceptance", func(c *Compiled) { c.Final[1] = false }},
		{"events", func(c *Compiled) { c.Events = 0 }},
		{"offset shape", func(c *Compiled) { c.EdgeOff = c.EdgeOff[:len(c.EdgeOff)-1] }},
		{"offset span", func(c *Compiled) { c.EdgeOff[len(c.EdgeOff)-1]++ }},
		{"max degree", func(c *Compiled) { c.MaxDeg++ }},
		{"edge target", func(c *Compiled) { c.EdgeTo[0] = int32(c.N) }},
		{"edge label id", func(c *Compiled) { c.EdgeLabel[0] = int32(len(c.Labels)) }},
		{"unsatisfiable label", func(c *Compiled) { c.Labels[0] = Label{Pos: 1, Neg: 1} }},
		{"foreign label events", func(c *Compiled) { c.Labels[0] = Label{Pos: 1 << 20} }},
	}
	for _, tc := range tamper {
		a := adoptTestBA(t)
		c := Compile(adoptTestBA(t)) // fresh, structurally valid copy
		tc.mod(c)
		if err := a.AdoptCompiled(c); err == nil {
			t.Errorf("%s: tampered form adopted without error", tc.name)
		}
	}
	// nil is rejected too.
	if err := adoptTestBA(t).AdoptCompiled(nil); err == nil {
		t.Error("nil compiled form adopted without error")
	}
}

// TestAdoptCompiledFirstWriterWins: once a form is resident (compiled
// or adopted), a later adoption validates but does not replace it.
func TestAdoptCompiledFirstWriterWins(t *testing.T) {
	a := adoptTestBA(t)
	resident := a.Compiled()
	other := Compile(adoptTestBA(t))
	if err := a.AdoptCompiled(other); err != nil {
		t.Fatal(err)
	}
	if a.Compiled() != resident {
		t.Error("late adoption replaced the resident compiled form")
	}
}
