package buchi

import (
	"fmt"
	"iter"
	"sync"

	"contractdb/internal/vocab"
)

// StateID indexes a state within one automaton. States are dense,
// 0-based.
type StateID int

// Edge is an outgoing transition: enabled when the current snapshot
// satisfies Label, moving the automaton to To.
type Edge struct {
	Label Label
	To    StateID
}

// BA is a Büchi automaton with a single initial state (w.l.o.g., as in
// Algorithm 2's preconditions). Final states are the Büchi acceptance
// set: a run is accepting iff it visits a final state infinitely
// often.
//
// Events records the set of events the automaton's source formula
// cites. For a contract BA this is the contract vocabulary that the
// permission semantics restricts to (Definition 1); labels may mention
// only events in Events.
//
// The transitions are a CSR (compressed sparse row) adjacency with
// interned labels: the permission kernels, stream frontiers, quotient
// derivation and graph walks read the flat arrays directly, and a
// snapshot stores and adopts them as they are. Per-label work (the
// compatibility bitmasks of the permission package) is done once per
// distinct label instead of once per edge. A BA is immutable: Flat.BA
// builds one, canonicalizing every row, and a snapshot load or a
// quotient derivation adopts arrays that Validate accepts. Its arrays
// may alias a read-only snapshot mapping.
type BA struct {
	Init   StateID
	Final  []bool // indexed by StateID
	Events vocab.Set

	// EdgeOff has one entry per state plus one; state s's edges
	// occupy the index range [EdgeOff[s], EdgeOff[s+1]) of EdgeTo and
	// EdgeLabel, sorted as CanonicalEdges sorts them.
	EdgeOff []int32
	// EdgeTo is the target state per edge.
	EdgeTo []int32
	// EdgeLabel is the index into Labels per edge.
	EdgeLabel []int32
	// Labels is the deduplicated label table, in order of first use
	// along the edges. len(Labels) is typically far smaller than
	// len(EdgeTo): clause-product automata reuse the same few
	// conjunctions on many edges.
	Labels []Label
	// MaxDeg is the maximum out-degree, the sizing bound for per-state
	// bitmask rows.
	MaxDeg int

	// Lazily built component structure; see Condensation.
	condOnce sync.Once
	cond     *Condensation
}

// NumStates returns the number of states.
func (a *BA) NumStates() int { return len(a.Final) }

// NumEdges returns the total number of transitions.
func (a *BA) NumEdges() int { return len(a.EdgeTo) }

// Edges yields state s's transitions in their stored order.
func (a *BA) Edges(s StateID) iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		for i := a.EdgeOff[s]; i < a.EdgeOff[s+1]; i++ {
			if !yield(Edge{Label: a.Labels[a.EdgeLabel[i]], To: StateID(a.EdgeTo[i])}) {
				return
			}
		}
	}
}

// LabelMerger rewrites one edge row at a time by the Boolean adjacency
// rule: two edges to the same target whose labels differ in exactly
// one literal's polarity combine into one edge without that literal
// ((µ∧e) ∨ (µ∧¬e) ≡ µ). The language is unchanged, and compatibility
// with any satisfiable query label is unchanged too: a label
// conflicting with both µ∧e and µ∧¬e would have to contain both e and
// ¬e. Clause-product automata are full of such sibling pairs; merging
// them shrinks edge counts and makes more states bisimilar. A merged
// row may hold labels the merge made redundant; Flat.BA drops them.
//
// Its index is reused across rows and calls, so a reused merger
// allocates nothing once its index has grown. The zero value is ready.
type LabelMerger struct {
	index KeyTable // (target, label) → position in the row being kept
}

// Bytes returns the size of m's index, for pools that drop large
// scratch.
func (m *LabelMerger) Bytes() int { return m.index.Bytes() }

// Merge rewrites out in place by the adjacency rule, to a fixpoint,
// and returns the merged row and whether any two edges merged.
func (m *LabelMerger) Merge(out []Edge) ([]Edge, bool) {
	for pass := 0; ; pass++ {
		merged := false
		m.index.Reset()
		kept := out[:0]
		var tos uint64 // bit To%64 is set once the index holds a key to To
		for _, e := range out {
			placed := false
			bit := uint64(1) << (e.To & 63)
			for vars := uint64(e.Label.Vars()); vars != 0 && tos&bit != 0; vars &= vars - 1 {
				ev := vocab.Set(vars & -vars)
				reduced := Label{Pos: e.Label.Pos &^ ev, Neg: e.Label.Neg &^ ev}
				opposite := [3]uint64{uint64(e.To), uint64(reduced.Pos | e.Label.Neg&ev), uint64(reduced.Neg | e.Label.Pos&ev)}
				if i, ok := m.index.Take(opposite); ok {
					// The partner's old key leaves the index, so no later
					// edge pairs against it; its reduced label is indexed
					// on the next fixpoint pass.
					kept[i].Label = reduced
					merged, placed = true, true
					break
				}
			}
			if !placed {
				m.index.Put([3]uint64{uint64(e.To), uint64(e.Label.Pos), uint64(e.Label.Neg)}, int32(len(kept)))
				kept = append(kept, e)
				tos |= bit
			}
		}
		out = kept
		if !merged {
			return out, pass > 0
		}
	}
}

// FinalStates returns the accepting states in increasing order.
func (a *BA) FinalStates() []StateID {
	var out []StateID
	for s, f := range a.Final {
		if f {
			out = append(out, StateID(s))
		}
	}
	return out
}

// Reachable returns the set of states reachable from Init (inclusive).
func (a *BA) Reachable() []bool {
	seen := make([]bool, a.NumStates())
	stack := []StateID{a.Init}
	seen[a.Init] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range a.EdgeTo[a.EdgeOff[s]:a.EdgeOff[s+1]] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, StateID(t))
			}
		}
	}
	return seen
}

// SCCs computes strongly connected components with an iterative
// Tarjan's algorithm. It returns the component index of every state;
// components are numbered in reverse topological order (a component's
// successors have smaller indices).
func (a *BA) SCCs() (comp []int, count int) {
	var t Tarjan
	return t.walk(a.EdgeOff, a.EdgeTo)
}

// Tarjan is the working memory of SCCs, kept between walks: a reused
// Tarjan allocates nothing once its arrays have grown to the largest
// graph it walked. The zero value is ready.
type Tarjan struct {
	comp, index, low []int
	onStack          []bool
	stack, order     []StateID
	work             []tarjanFrame
	to               []int32 // Flat's targets
}

// Order returns the states of the last walk in component order, as
// the walk completed them: every state of component c comes before
// those of c+1.
func (t *Tarjan) Order() []StateID { return t.order }

type tarjanFrame struct {
	v    StateID
	edge int32
}

// walk is the package's one Tarjan walk, over the graph whose state s
// has the targets to[off[s]:off[s+1]].
func (t *Tarjan) walk(off, to []int32) (comp []int, count int) {
	n := len(off) - 1
	t.comp, t.index, t.low = grow(t.comp, n), grow(t.index, n), grow(t.low, n)
	t.onStack = grow(t.onStack, n)
	comp, index, low, onStack := t.comp, t.index, t.low, t.onStack
	for i := range n {
		comp[i], index[i], onStack[i] = -1, -1, false
	}
	stack := t.stack[:0]
	t.order = t.order[:0]
	next := 0
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		work := append(t.work[:0], tarjanFrame{v: StateID(root), edge: off[root]})
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.edge == off[v] {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for end := off[v+1]; f.edge < end; {
				w := StateID(to[f.edge])
				f.edge++
				if index[w] == -1 {
					work = append(work, tarjanFrame{v: w, edge: off[w]})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = count
					t.order = append(t.order, w)
					if w == v {
						break
					}
				}
				count++
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
		t.work = work
	}
	t.stack = stack
	return comp, count
}

// grow returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// OnAcceptingCycle returns, per state, whether the state lies on some
// cycle that passes through a final state. These are the valid knots
// for contract-side lassos; the seeds optimization (paper §6.2.4)
// precomputes this set at registration time.
func (a *BA) OnAcceptingCycle() []bool {
	comp, count := a.SCCs()
	// A component supports cycles iff it has an internal edge (this
	// covers both multi-state components and self-loops).
	cyclic := make([]bool, count)
	hasFinal := make([]bool, count)
	for from := range comp {
		for _, to := range a.EdgeTo[a.EdgeOff[from]:a.EdgeOff[from+1]] {
			if comp[from] == comp[to] {
				cyclic[comp[from]] = true
			}
		}
	}
	for s, f := range a.Final {
		if f {
			hasFinal[comp[s]] = true
		}
	}
	out := make([]bool, a.NumStates())
	for s := range out {
		c := comp[s]
		out[s] = cyclic[c] && hasFinal[c]
	}
	return out
}

// CanReachAcceptingCycle returns, per state, whether some path leads
// from the state to an accepting cycle. States where this fails can
// never contribute to an accepting run.
func (a *BA) CanReachAcceptingCycle() []bool {
	return a.CanReach(a.OnAcceptingCycle())
}

// CanReach returns, per state, whether some path (possibly empty)
// leads from the state to a state marked in goal. It walks the
// reversed CSR adjacency backward from goal.
func (a *BA) CanReach(goal []bool) []bool {
	n := a.NumStates()
	off := make([]int32, n+2)
	for _, t := range a.EdgeTo {
		off[t+2]++
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}
	from := make([]StateID, len(a.EdgeTo))
	for s := range n {
		for _, t := range a.EdgeTo[a.EdgeOff[s]:a.EdgeOff[s+1]] {
			from[off[t+1]] = StateID(s)
			off[t+1]++
		}
	}
	// off[t:t+1] now bounds state t's sources in from.
	out := make([]bool, n)
	var stack []StateID
	for s, ok := range goal {
		if ok {
			out[s] = true
			stack = append(stack, StateID(s))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range from[off[s]:off[s+1]] {
			if !out[p] {
				out[p] = true
				stack = append(stack, p)
			}
		}
	}
	return out
}

// Trim returns an equivalent automaton restricted to states that are
// reachable from the initial state and from which an accepting cycle
// is reachable. If the initial state itself is pruned, the automaton's
// language is empty and Trim returns a single-state automaton with no
// transitions. The second result maps old state IDs to new ones (-1
// for removed states).
func (a *BA) Trim() (*BA, []StateID) {
	keep := a.Reachable()
	for s, live := range a.CanReachAcceptingCycle() {
		keep[s] = keep[s] && live
	}
	return a.Restrict(keep)
}

// Restrict returns the sub-automaton on the states marked in keep,
// without the edges that leave it or carry unsatisfiable labels. If
// the initial state is not kept, Restrict returns a single-state
// automaton with no transitions. The second result maps old state IDs
// to new ones (-1 for removed states).
func (a *BA) Restrict(keep []bool) (*BA, []StateID) {
	remap := make([]StateID, a.NumStates())
	n := 0
	for s := range remap {
		if keep[s] {
			remap[s] = StateID(n)
			n++
		} else {
			remap[s] = -1
		}
	}
	var f Flat
	f.Reset()
	if remap[a.Init] == -1 {
		for i := range remap {
			remap[i] = -1
		}
		f.Next()
		return f.BA(a.Events), remap
	}
	f.Init = remap[a.Init]
	for s := range remap {
		if remap[s] == -1 {
			continue
		}
		f.Final = append(f.Final, a.Final[s])
		for e := range a.Edges(StateID(s)) {
			if remap[e.To] != -1 && e.Label.Satisfiable() {
				f.Edges = append(f.Edges, Edge{Label: e.Label, To: remap[e.To]})
			}
		}
		f.Next()
	}
	return f.BA(a.Events), remap
}

// IsEmpty reports whether the automaton accepts no run, i.e. no
// accepting cycle is reachable from the initial state.
func (a *BA) IsEmpty() bool {
	reach := a.Reachable()
	for s, on := range a.OnAcceptingCycle() {
		if on && reach[s] {
			return false
		}
	}
	return true
}

// Validate checks the automaton's internal consistency: CSR shape,
// offset monotonicity, MaxDeg, edge target and label ranges, label
// satisfiability and event scoping. It returns the first problem
// found. Arrays adopted from outside the builder — a snapshot's slabs,
// a derived quotient's — pass it before anything reads them.
func (a *BA) Validate() error {
	if a == nil {
		return fmt.Errorf("buchi: nil automaton")
	}
	n := len(a.Final)
	if int(a.Init) < 0 || (n > 0 && int(a.Init) >= n) {
		return fmt.Errorf("buchi: initial state %d of %d", a.Init, n)
	}
	if len(a.EdgeOff) != n+1 {
		return fmt.Errorf("buchi: offset table has %d entries for %d states", len(a.EdgeOff), n)
	}
	if len(a.EdgeTo) != len(a.EdgeLabel) {
		return fmt.Errorf("buchi: %d edge targets but %d edge labels", len(a.EdgeTo), len(a.EdgeLabel))
	}
	if a.EdgeOff[0] != 0 || int(a.EdgeOff[n]) != len(a.EdgeTo) {
		return fmt.Errorf("buchi: offset table spans [%d, %d], edges span [0, %d]",
			a.EdgeOff[0], a.EdgeOff[n], len(a.EdgeTo))
	}
	maxDeg := 0
	for s := 0; s < n; s++ {
		d := int(a.EdgeOff[s+1] - a.EdgeOff[s])
		if d < 0 {
			return fmt.Errorf("buchi: offset table decreases at state %d", s)
		}
		maxDeg = max(maxDeg, d)
	}
	if a.MaxDeg != maxDeg {
		return fmt.Errorf("buchi: MaxDeg %d, offsets imply %d", a.MaxDeg, maxDeg)
	}
	for i, to := range a.EdgeTo {
		if to < 0 || int(to) >= n {
			return fmt.Errorf("buchi: edge %d targets state %d of %d", i, to, n)
		}
		if l := a.EdgeLabel[i]; l < 0 || int(l) >= len(a.Labels) {
			return fmt.Errorf("buchi: edge %d cites label %d of %d", i, l, len(a.Labels))
		}
	}
	for i, l := range a.Labels {
		if !l.Satisfiable() {
			return fmt.Errorf("buchi: label %d is unsatisfiable", i)
		}
		if !l.Vars().SubsetOf(a.Events) {
			return fmt.Errorf("buchi: label %d cites events outside the automaton's set", i)
		}
	}
	return nil
}
