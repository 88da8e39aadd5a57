// Package buchi implements Büchi automata over conjunction-of-literal
// transition labels, the data model of the contract database (paper
// §2.3, §6.2.1).
//
// A Büchi automaton (BA) is a finite automaton on infinite words: a
// run is accepting iff it visits a final state infinitely often.
// Transition labels are conjunctions of event literals (e.g.
// refund ∧ ¬dateChange); a snapshot enables a transition iff it
// satisfies every literal. The package provides the label algebra used
// by the permission checker and the indexes (conflict, compatibility,
// expansion), graph analyses (reachability, SCCs, accepting-cycle
// states), lasso-run acceptance (the test oracle), and a textual
// serialization.
//
// An automaton has one form: an immutable BA holding its transitions
// as CSR arrays with an interned label table, which every reader —
// kernels, stream frontiers, quotient derivation, graph walks, the
// snapshot writer — walks directly. Flat.BA is the one way to build a
// BA from rows (Builder feeds it edges in any order); a snapshot load
// or a quotient derivation adopts arrays that BA.Validate accepts.
package buchi

import (
	"fmt"
	"sort"
	"strings"

	"contractdb/internal/vocab"
)

// Label is a conjunction of literals: every event in Pos must be true
// and every event in Neg must be false. The zero Label is the
// condition "true". A Label with Pos∩Neg ≠ ∅ is unsatisfiable.
//
// Labels double as literal *sets* in the prefilter index, where Pos
// and Neg may deliberately overlap (an expansion contains both
// polarities of unconstrained events, §4.2).
type Label struct {
	Pos vocab.Set
	Neg vocab.Set
}

// True is the always-enabled label.
var True = Label{}

// Vars returns the set of events mentioned by l (either polarity).
func (l Label) Vars() vocab.Set { return l.Pos.Union(l.Neg) }

// IsTrue reports whether l is the unconstrained label.
func (l Label) IsTrue() bool { return l.Pos == 0 && l.Neg == 0 }

// Satisfiable reports whether some snapshot satisfies l, i.e. no event
// is required both present and absent.
func (l Label) Satisfiable() bool { return l.Pos.Intersect(l.Neg).IsEmpty() }

// Conflicts reports whether l and m contain opposite literals for some
// event, which makes l ∧ m unsatisfiable (for individually satisfiable
// labels).
func (l Label) Conflicts(m Label) bool {
	return !l.Pos.Intersect(m.Neg).IsEmpty() || !l.Neg.Intersect(m.Pos).IsEmpty()
}

// And returns the conjunction of the two labels. The result may be
// unsatisfiable; callers check Satisfiable when it matters.
func (l Label) And(m Label) Label {
	return Label{Pos: l.Pos.Union(m.Pos), Neg: l.Neg.Union(m.Neg)}
}

// Matches reports whether the snapshot (the set of true events)
// satisfies every literal of l.
func (l Label) Matches(snapshot vocab.Set) bool {
	return l.Pos.SubsetOf(snapshot) && l.Neg.Intersect(snapshot).IsEmpty()
}

// Project keeps only the literals over events in keep, dropping the
// rest. This is the label-level operation underlying the bisimulation
// optimization's projections (paper §5.1).
func (l Label) Project(keep vocab.Set) Label {
	return Label{Pos: l.Pos.Intersect(keep), Neg: l.Neg.Intersect(keep)}
}

// Expand returns the expansion E(l) w.r.t. a contract that cites
// contractEvents (paper §4.2): all literals of l plus both polarities
// of every cited event l does not mention. The result is a literal
// set, not a conjunction: Pos and Neg overlap on the free events.
func (l Label) Expand(contractEvents vocab.Set) Label {
	rest := contractEvents.Minus(l.Vars())
	return Label{Pos: l.Pos.Union(rest), Neg: l.Neg.Union(rest)}
}

// ContainedIn reports whether every literal of l occurs in the literal
// set m (used with expansions: compatibility-as-containment, §4.2).
func (l Label) ContainedIn(m Label) bool {
	return l.Pos.SubsetOf(m.Pos) && l.Neg.SubsetOf(m.Neg)
}

// LiteralCount returns the number of literals in l (counting both
// polarities).
func (l Label) LiteralCount() int { return l.Pos.Len() + l.Neg.Len() }

// CompatibleWith implements condition 3 of Definition 7: a query label
// q is compatible with contract label l iff q cites only events of the
// contract and l ∧ q is satisfiable. The receiver is the contract
// label.
func (l Label) CompatibleWith(q Label, contractEvents vocab.Set) bool {
	return q.Vars().SubsetOf(contractEvents) && !l.Conflicts(q)
}

// Format renders l as a conjunction using event names, e.g.
// "refund & !dateChange"; the true label renders as "true".
func (l Label) Format(v *vocab.Vocabulary) string {
	if l.IsTrue() {
		return "true"
	}
	lits := make([]string, 0, l.LiteralCount())
	l.Pos.ForEach(func(id vocab.EventID) bool {
		lits = append(lits, v.Name(id))
		return true
	})
	l.Neg.ForEach(func(id vocab.EventID) bool {
		lits = append(lits, "!"+v.Name(id))
		return true
	})
	sort.Strings(lits)
	return strings.Join(lits, " & ")
}

// ParseLabel parses the Format representation back into a Label,
// interning any new event names into v.
func ParseLabel(v *vocab.Vocabulary, s string) (Label, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "true" {
		return True, nil
	}
	var l Label
	for _, part := range strings.Split(s, "&") {
		part = strings.TrimSpace(part)
		neg := false
		if strings.HasPrefix(part, "!") {
			neg = true
			part = strings.TrimSpace(part[1:])
		}
		if part == "" {
			return Label{}, fmt.Errorf("buchi: empty literal in label %q", s)
		}
		id, err := v.Add(part)
		if err != nil {
			return Label{}, fmt.Errorf("buchi: label %q: %w", s, err)
		}
		if neg {
			l.Neg = l.Neg.With(id)
		} else {
			l.Pos = l.Pos.With(id)
		}
	}
	return l, nil
}
