package buchi

import (
	"sync"
	"testing"

	"contractdb/internal/vocab"
)

// shellFixture builds a small normalized automaton, compiles it, and
// wraps the compiled form in a shell, mirroring the snapshot path:
// construct → Normalize → Compile at save, ShellFromCompiled at load.
func shellFixture(t *testing.T) (*BA, *BA) {
	t.Helper()
	voc := vocab.MustFromNames("a", "b")
	a, _ := voc.Lookup("a")
	b, _ := voc.Lookup("b")
	la := Label{Pos: vocab.Set(0).With(a)}
	lb := Label{Pos: vocab.Set(0).With(b)}
	lab := Label{Pos: vocab.Set(0).With(a).With(b)}

	orig := New(3)
	orig.AddEdge(0, la, 1)
	orig.AddEdge(0, lab, 1) // subsumed by la at Compile time
	orig.AddEdge(1, lb, 2)
	orig.AddEdge(2, True, 2)
	orig.SetFinal(2)
	orig.MergeAdjacentLabels()
	orig.Normalize()

	shell, err := ShellFromCompiled(orig.Compiled())
	if err != nil {
		t.Fatalf("ShellFromCompiled: %v", err)
	}
	return orig, shell
}

func TestShellMaterializesExactEdges(t *testing.T) {
	orig, shell := shellFixture(t)
	if shell.Out != nil {
		t.Fatal("shell materialized eagerly")
	}
	if shell.NumStates() != orig.NumStates() {
		t.Fatalf("shell NumStates = %d, want %d", shell.NumStates(), orig.NumStates())
	}
	if shell.NumEdges() != orig.NumEdges() { // forces materialization
		t.Fatalf("shell NumEdges = %d, want %d", shell.NumEdges(), orig.NumEdges())
	}
	for s := range orig.Out {
		if len(orig.Out[s]) != len(shell.Out[s]) {
			t.Fatalf("state %d: %d edges, want %d", s, len(shell.Out[s]), len(orig.Out[s]))
		}
		for i := range orig.Out[s] {
			if orig.Out[s][i] != shell.Out[s][i] {
				t.Fatalf("state %d edge %d: %+v, want %+v", s, i, shell.Out[s][i], orig.Out[s][i])
			}
		}
	}
	if err := shell.Validate(); err != nil {
		t.Fatalf("shell.Validate: %v", err)
	}
}

func TestShellAnalysesMatch(t *testing.T) {
	orig, shell := shellFixture(t)
	wantOn := orig.OnAcceptingCycle()
	gotOn := shell.OnAcceptingCycle()
	for s := range wantOn {
		if wantOn[s] != gotOn[s] {
			t.Fatalf("OnAcceptingCycle[%d] = %v, want %v", s, gotOn[s], wantOn[s])
		}
	}
	if shell.IsEmpty() != orig.IsEmpty() {
		t.Fatal("IsEmpty disagrees between shell and original")
	}
	// Re-compiling the materialized shell must reproduce the adopted
	// form exactly, not re-flatten: Compiled() returns the installed
	// pointer without touching the compile counter.
	before := CompileCount()
	if shell.Compiled() != orig.Compiled() {
		t.Fatal("shell.Compiled() is not the adopted form")
	}
	if CompileCount() != before {
		t.Fatal("shell.Compiled() re-flattened")
	}
}

func TestShellEnsureEdgesConcurrent(t *testing.T) {
	_, shell := shellFixture(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shell.EnsureEdges()
			_ = shell.Out[0]
		}()
	}
	wg.Wait()
}

func TestShellRejectsCorruptCompiled(t *testing.T) {
	orig, _ := shellFixture(t)
	good := orig.Compiled()

	bad := *good
	bad.Init = StateID(good.N + 3)
	if _, err := ShellFromCompiled(&bad); err == nil {
		t.Fatal("accepted out-of-range initial state")
	}

	bad = *good
	bad.EdgeTo = append([]int32(nil), good.EdgeTo...)
	bad.EdgeTo[0] = int32(good.N + 1)
	if _, err := ShellFromCompiled(&bad); err == nil {
		t.Fatal("accepted out-of-range edge target")
	}

	bad = *good
	bad.MaxDeg = good.MaxDeg + 1
	if _, err := ShellFromCompiled(&bad); err == nil {
		t.Fatal("accepted wrong MaxDeg")
	}

	if _, err := ShellFromCompiled(nil); err == nil {
		t.Fatal("accepted nil compiled form")
	}
}

// TestAdoptCompiledValidates: adopting a compiled form (ShellFromCompiled,
// the snapshot loader's only check on persisted automata) refuses a form
// that breaks any structural invariant.
func TestAdoptCompiledValidates(t *testing.T) {
	tamper := []struct {
		name string
		mod  func(c *Compiled)
	}{
		{"negative state count", func(c *Compiled) { c.N = -1 }},
		{"initial state", func(c *Compiled) { c.Init = StateID(c.N + 3) }},
		{"acceptance shape", func(c *Compiled) { c.Final = c.Final[:len(c.Final)-1] }},
		{"offset shape", func(c *Compiled) { c.EdgeOff = c.EdgeOff[:len(c.EdgeOff)-1] }},
		{"offset span", func(c *Compiled) { c.EdgeOff[len(c.EdgeOff)-1]++ }},
		{"label shape", func(c *Compiled) { c.EdgeLabel = c.EdgeLabel[:len(c.EdgeLabel)-1] }},
		{"max degree", func(c *Compiled) { c.MaxDeg++ }},
		{"edge target", func(c *Compiled) { c.EdgeTo[0] = int32(c.N + 1) }},
		{"edge label id", func(c *Compiled) { c.EdgeLabel[0] = int32(len(c.Labels)) }},
		{"unsatisfiable label", func(c *Compiled) { c.Labels[0] = Label{Pos: 1, Neg: 1} }},
		{"foreign label events", func(c *Compiled) { c.Labels[0] = Label{Pos: 1 << 20} }},
	}
	for _, tc := range tamper {
		orig, _ := shellFixture(t)
		c := Compile(orig) // fresh, structurally valid copy
		tc.mod(c)
		if _, err := ShellFromCompiled(c); err == nil {
			t.Errorf("%s: tampered form adopted without error", tc.name)
		}
	}
	if _, err := ShellFromCompiled(nil); err == nil {
		t.Error("nil compiled form adopted without error")
	}
}
