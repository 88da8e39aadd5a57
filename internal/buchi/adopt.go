package buchi

import (
	"fmt"
	"sync/atomic"
)

// compileCount counts CSR flattenings (Compile calls) process-wide.
// The cold-start tests assert a zero delta across snapshot load plus
// the first queries: a formatVersion-3 snapshot restores every
// compiled form, so nothing should flatten again.
var compileCount atomic.Int64

// CompileCount returns the number of CSR flattenings performed by this
// process so far. Tests use deltas; the absolute value is meaningless.
func CompileCount() int64 { return compileCount.Load() }

// AdoptCompiled installs a previously built compiled form (typically
// decoded from a formatVersion-3 snapshot or derived from a parent
// automaton's compiled form) instead of flattening the automaton on
// first use. The form is validated structurally against the automaton
// — state count, initial state, acceptance set, events, CSR shape,
// label table — but its edge set is trusted, exactly as Load trusts
// the persisted automaton itself after Validate.
//
// Adoption is first-writer-wins with Compile: if the automaton already
// flattened (or adopted), the call validates and returns without
// replacing the existing form.
func (a *BA) AdoptCompiled(c *Compiled) error {
	if err := a.validateCompiled(c); err != nil {
		return err
	}
	a.compileOnce.Do(func() { a.compiled = c })
	return nil
}

func (a *BA) validateCompiled(c *Compiled) error {
	if c == nil {
		return fmt.Errorf("buchi: adopt: nil compiled form")
	}
	n := a.NumStates()
	if c.N != n {
		return fmt.Errorf("buchi: adopt: compiled form has %d states, automaton has %d", c.N, n)
	}
	if c.Init != a.Init {
		return fmt.Errorf("buchi: adopt: compiled initial state %d, automaton has %d", c.Init, a.Init)
	}
	if c.Events != a.Events {
		return fmt.Errorf("buchi: adopt: compiled event set %v, automaton has %v", c.Events, a.Events)
	}
	if len(c.Final) != n {
		return fmt.Errorf("buchi: adopt: acceptance set covers %d states, automaton has %d", len(c.Final), n)
	}
	for s := 0; s < n; s++ {
		if c.Final[s] != a.Final[s] {
			return fmt.Errorf("buchi: adopt: acceptance of state %d disagrees with the automaton", s)
		}
	}
	return validateCompiledSelf(c)
}

// validateCompiledSelf checks the internal consistency of a compiled
// form in isolation: CSR shape, offset monotonicity, MaxDeg, edge
// target and label ranges, label satisfiability and event scoping.
// The agreement half of adoption (does the form describe *this*
// automaton?) lives in validateCompiled; shells skip it because the
// shell is built *from* the form.
func validateCompiledSelf(c *Compiled) error {
	if c == nil {
		return fmt.Errorf("buchi: adopt: nil compiled form")
	}
	n := c.N
	if n < 0 {
		return fmt.Errorf("buchi: adopt: negative state count %d", n)
	}
	if int(c.Init) < 0 || (n > 0 && int(c.Init) >= n) {
		return fmt.Errorf("buchi: adopt: initial state %d of %d", c.Init, n)
	}
	if len(c.Final) != n {
		return fmt.Errorf("buchi: adopt: acceptance set covers %d states, form has %d", len(c.Final), n)
	}
	if len(c.EdgeOff) != n+1 {
		return fmt.Errorf("buchi: adopt: offset table has %d entries, want %d", len(c.EdgeOff), n+1)
	}
	if len(c.EdgeTo) != len(c.EdgeLabel) {
		return fmt.Errorf("buchi: adopt: %d edge targets but %d edge labels", len(c.EdgeTo), len(c.EdgeLabel))
	}
	if c.EdgeOff[0] != 0 || int(c.EdgeOff[n]) != len(c.EdgeTo) {
		return fmt.Errorf("buchi: adopt: offset table spans [%d, %d], edges span [0, %d]",
			c.EdgeOff[0], c.EdgeOff[n], len(c.EdgeTo))
	}
	maxDeg := 0
	for s := 0; s < n; s++ {
		d := int(c.EdgeOff[s+1] - c.EdgeOff[s])
		if d < 0 {
			return fmt.Errorf("buchi: adopt: offset table decreases at state %d", s)
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if c.MaxDeg != maxDeg {
		return fmt.Errorf("buchi: adopt: MaxDeg %d, offsets imply %d", c.MaxDeg, maxDeg)
	}
	for i, to := range c.EdgeTo {
		if to < 0 || int(to) >= n {
			return fmt.Errorf("buchi: adopt: edge %d targets state %d of %d", i, to, n)
		}
		if l := c.EdgeLabel[i]; l < 0 || int(l) >= len(c.Labels) {
			return fmt.Errorf("buchi: adopt: edge %d cites label %d of %d", i, l, len(c.Labels))
		}
	}
	for i, l := range c.Labels {
		if !l.Satisfiable() {
			return fmt.Errorf("buchi: adopt: label %d is unsatisfiable", i)
		}
		if !l.Vars().SubsetOf(c.Events) {
			return fmt.Errorf("buchi: adopt: label %d cites events outside the automaton's set", i)
		}
	}
	return nil
}

// ShellFromCompiled wraps a validated compiled form in a BA whose
// adjacency lists are not materialized: Out stays nil until some
// analysis calls EnsureEdges. The compiled kernels (product search,
// stream frontiers, quotient derivation) and the seed analysis
// (OnAcceptingCycle) run entirely off the CSR arrays, so a
// snapshot-loaded corpus — and every projection quotient, derived or
// adopted — served only through them never allocates per-edge heap
// structures at all: the edge memory stays wherever the Compiled's
// arrays live, possibly an mmap'd snapshot.
//
// Final aliases c.Final; the shell must be treated as immutable, the
// same contract every registered automaton already carries.
func ShellFromCompiled(c *Compiled) (*BA, error) {
	if err := validateCompiledSelf(c); err != nil {
		return nil, err
	}
	a := &BA{Init: c.Init, Final: c.Final, Events: c.Events, shell: true}
	a.compileOnce.Do(func() { a.compiled = c })
	return a, nil
}
