// Package monitor implements online compliance checking of an event
// stream against a contract automaton.
//
// The broker answers hypothetical questions ("could a refund happen
// after a missed flight?"); once a customer has subscribed, the
// natural follow-up — the runtime-monitoring use case the paper's
// related work discusses ([16], [19] in §8) — is checking that the
// events that actually occur stay within the contract's allowed
// behavior. A Monitor consumes snapshots one at a time and maintains
// the set of automaton states reachable on the observed prefix:
//
//   - if the set becomes empty, the prefix violates the contract and
//     no continuation can repair it (Violated);
//   - otherwise the prefix is fine, and the monitor also reports
//     whether *some* infinite continuation is accepting (Alive) —
//     with a trimmed automaton this is always true, so a non-trimmed
//     contract automaton can additionally distinguish doomed prefixes.
//
// Because contracts constrain only the events they cite (Definition
// 1), snapshots are projected onto the contract's vocabulary before
// stepping: events outside the contract's world are none of its
// business.
package monitor

import (
	"fmt"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// Status classifies the observed prefix.
type Status int

const (
	// Compliant: the prefix is consistent with the contract and an
	// accepting continuation exists.
	Compliant Status = iota
	// Doomed: the prefix has not yet violated any clause, but no
	// accepting continuation exists — every extension eventually
	// violates the contract.
	Doomed
	// Violated: the prefix itself is not allowed by the contract.
	Violated
)

var statusNames = [...]string{"compliant", "doomed", "violated"}

// String returns a human-readable status.
func (s Status) String() string { return statusNames[s] }

// Monitor tracks the reachable state set of one contract automaton
// over an observed snapshot sequence. It is not safe for concurrent
// use; wrap it if multiple goroutines feed one stream.
type Monitor struct {
	auto *buchi.BA
	// live[s] reports whether an accepting run can start at s; states
	// outside this set are dead weight for the frontier.
	live []bool
	// frontier is the set of states reachable on the observed prefix.
	// scratch is the other half of a double buffer: Step fills it and
	// swaps, so a monitor in steady state allocates nothing per event.
	frontier []bool
	scratch  []bool
	steps    int
	violated bool
}

// New builds a monitor for the automaton. The automaton is not
// copied; it must not be mutated while the monitor is in use.
func New(auto *buchi.BA) *Monitor {
	m := &Monitor{
		auto: auto,
		live: auto.CanReachAcceptingCycle(),
	}
	m.Reset()
	return m
}

// Reset returns the monitor to the initial (empty prefix) state. The
// frontier buffers are retained across resets.
func (m *Monitor) Reset() {
	if m.frontier == nil {
		m.frontier = make([]bool, m.auto.NumStates())
		m.scratch = make([]bool, m.auto.NumStates())
	} else {
		clear(m.frontier)
	}
	m.frontier[m.auto.Init] = true
	m.steps = 0
	m.violated = false
}

// Steps returns the number of snapshots consumed.
func (m *Monitor) Steps() int { return m.steps }

// Step consumes one snapshot (the set of events true at this instant)
// and returns the resulting status. Once Violated, the monitor stays
// violated until Reset. Events outside the contract's vocabulary are
// ignored, matching the permission semantics' projection.
func (m *Monitor) Step(snapshot vocab.Set) Status {
	m.steps++
	if m.violated {
		return Violated
	}
	a := m.auto
	projected := snapshot.Intersect(a.Events)
	next := m.scratch
	clear(next)
	any := false
	for s, in := range m.frontier {
		if !in {
			continue
		}
		for i := a.EdgeOff[s]; i < a.EdgeOff[s+1]; i++ {
			if a.Labels[a.EdgeLabel[i]].Matches(projected) {
				next[a.EdgeTo[i]] = true
				any = true
			}
		}
	}
	m.frontier, m.scratch = next, m.frontier
	if !any {
		m.violated = true
		return Violated
	}
	return m.status()
}

// Status returns the classification of the prefix consumed so far.
func (m *Monitor) Status() Status {
	if m.violated {
		return Violated
	}
	return m.status()
}

func (m *Monitor) status() Status {
	for s, in := range m.frontier {
		if in && m.live[s] {
			return Compliant
		}
	}
	return Doomed
}

// StepEvents is a convenience for the common one-event-per-snapshot
// discipline (the running example's C0 clauses): it resolves event
// names against the vocabulary and steps once. Unknown events are an
// error — a typo in a monitored feed should fail loudly.
func (m *Monitor) StepEvents(voc *vocab.Vocabulary, events ...string) (Status, error) {
	set, err := voc.SetOf(events...)
	if err != nil {
		return m.Status(), fmt.Errorf("monitor: %w", err)
	}
	return m.Step(set), nil
}

// Replay runs a fresh pass over a whole snapshot sequence and returns
// the index of the first violating snapshot, or -1 if the sequence is
// allowed. The monitor is Reset before and after.
func (m *Monitor) Replay(snapshots []vocab.Set) int {
	m.Reset()
	defer m.Reset()
	for i, s := range snapshots {
		if m.Step(s) == Violated {
			return i
		}
	}
	return -1
}
