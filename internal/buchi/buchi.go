package buchi

import (
	"fmt"
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
type BA struct {
	Init   StateID
	Final  []bool // indexed by StateID
	Out    [][]Edge
	Events vocab.Set

	// Lazily built flat execution form; see Compiled. Valid only once
	// construction is finished — automata handed to the kernels are
	// immutable.
	compileOnce sync.Once
	compiled    *Compiled

	// Lazily built component structure; see Condensation.
	condOnce sync.Once
	cond     *Condensation

	// Shell automata (ShellFromCompiled) start with Out == nil and the
	// compiled form installed; edgesOnce materializes Out from the CSR
	// arrays on the first analysis that needs labeled or reversed
	// adjacency lists (Normalize, Trim, Reverse, Clone, Validate, the
	// permission tests' interpreted kernels, the text encoding). The
	// query path needs none of them: the compiled kernels and stream
	// frontiers read the CSR arrays, and the graph walks the
	// registration-time seed analysis runs (SCCs, OnAcceptingCycle,
	// Reachable) read them too for a shell. So a snapshot-loaded corpus
	// and every projection quotient keep their edge memory in the
	// (possibly mmap'd) compiled form only.
	edgesOnce sync.Once
	// shell is set once by ShellFromCompiled, before the automaton is
	// shared, and never changes: it selects the CSR arrays as the
	// graph the walks read, whether or not Out was materialized since.
	shell bool
}

// New returns an automaton with n states, initial state 0, and no
// transitions or final states.
func New(n int) *BA {
	return &BA{Final: make([]bool, n), Out: make([][]Edge, n)}
}

// NumStates returns the number of states.
func (a *BA) NumStates() int {
	if a.shell {
		return a.compiled.N // adjacency possibly not materialized
	}
	return len(a.Out)
}

// targets is a read-only view of the transition graph without labels:
// for each state, the neighbour range its outgoing edges lead to. A
// shell's view reads the CSR arrays of its compiled form; any other
// automaton's reads Out, so automata still under construction (the
// translator's Trim) walk the edges they hold right now. The CSR rows
// drop only edges subsumed by another edge to the same target, so
// both views of one automaton have the same targets per state.
type targets struct {
	out     [][]Edge
	off, to []int32 // shells: state s's targets are to[off[s]:off[s+1]]
	edges   []Edge  // a Flat's: state s's edges are edges[off[s]:off[s+1]]
}

func (a *BA) targets() targets {
	if a.shell {
		return targets{off: a.compiled.EdgeOff, to: a.compiled.EdgeTo}
	}
	return targets{out: a.Out}
}

// deg returns state s's out-degree in the view.
func (g targets) deg(s StateID) int {
	if g.off != nil {
		return int(g.off[s+1] - g.off[s])
	}
	return len(g.out[s])
}

// at returns the target of state s's i-th edge in the view.
func (g targets) at(s StateID, i int) StateID {
	switch {
	case g.to != nil:
		return StateID(g.to[int(g.off[s])+i])
	case g.off != nil:
		return g.edges[int(g.off[s])+i].To
	}
	return g.out[s][i].To
}

// EnsureEdges materializes the Out adjacency lists of a shell
// automaton from its compiled form. It is a no-op (beyond a
// sync.Once check) for automata built edge-by-edge. Every analysis
// that walks Out calls it at entry, so callers never need to;
// it is exported for code that reads a.Out directly (the permission
// tests' interpreted kernels). Concurrency-safe.
//
// Materialization reproduces exactly the adjacency a fresh
// construction would hold after MergeAdjacentLabels+Normalize: the
// CSR form stores edges in canonical order, and registered automata
// are normalized before compilation, so shell-materialized and
// originally-built automata are indistinguishable.
func (a *BA) EnsureEdges() { a.edgesOnce.Do(a.materializeEdges) }

func (a *BA) materializeEdges() {
	if a.Out != nil {
		return
	}
	c := a.compiled
	if c == nil {
		a.Out = make([][]Edge, len(a.Final))
		return
	}
	out := make([][]Edge, c.N)
	// One backing array, three-index subslices: per-row appends (which
	// shells never do, but Normalize reslices in place) stay inside
	// their row.
	edges := make([]Edge, len(c.EdgeTo))
	for i := range edges {
		edges[i] = Edge{Label: c.Labels[c.EdgeLabel[i]], To: StateID(c.EdgeTo[i])}
	}
	for s := 0; s < c.N; s++ {
		lo, hi := c.EdgeOff[s], c.EdgeOff[s+1]
		out[s] = edges[lo:hi:hi]
	}
	a.Out = out
}

// AddState appends a fresh state and returns its ID.
func (a *BA) AddState() StateID {
	a.Final = append(a.Final, false)
	a.Out = append(a.Out, nil)
	return StateID(len(a.Out) - 1)
}

// AddEdge inserts a transition. Duplicates are not filtered here —
// construction code calls Normalize once at the end, which is far
// cheaper than scanning the adjacency list on every insertion.
func (a *BA) AddEdge(from StateID, label Label, to StateID) {
	a.Out[from] = append(a.Out[from], Edge{Label: label, To: to})
	a.Events = a.Events.Union(label.Vars())
}

// Normalize sorts each state's transitions, removes exact duplicates,
// and drops subsumed edges: an edge (s, λ, t) is redundant when a
// second edge (s, µ, t) exists whose literals are a subset of λ's —
// every snapshot enabling λ enables µ, so the automaton's language is
// unchanged, and since µ conflicts with no more query labels than λ,
// simultaneous-lasso existence is unchanged too. Products of clause
// automata generate large numbers of such edges.
func (a *BA) Normalize() {
	a.EnsureEdges()
	for s, out := range a.Out {
		if len(out) >= 2 {
			a.Out[s] = CanonicalEdges(out)
		}
	}
}

// MergeAdjacentLabels rewrites each state's edge set by the Boolean
// adjacency rule: two edges to the same target whose labels differ in
// exactly one literal's polarity combine into one edge without that
// literal ((µ∧e) ∨ (µ∧¬e) ≡ µ). The language is unchanged, and
// compatibility with any satisfiable query label is unchanged too: a
// label conflicting with both µ∧e and µ∧¬e would have to contain both
// e and ¬e. Clause-product automata are full of such sibling pairs;
// merging them shrinks edge counts and makes more states bisimilar.
// Run Normalize afterwards to drop labels the merge made redundant.
func (a *BA) MergeAdjacentLabels() {
	a.EnsureEdges()
	var m LabelMerger
	for s, out := range a.Out {
		a.Out[s], _ = m.Merge(out)
	}
}

// LabelMerger applies MergeAdjacentLabels' rule to one edge row at a
// time. Its index is reused across rows and calls, so a reused merger
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

// SetFinal marks state s as accepting.
func (a *BA) SetFinal(s StateID) { a.Final[s] = true }

// NumEdges returns the total number of transitions.
func (a *BA) NumEdges() int {
	a.EnsureEdges()
	n := 0
	for _, out := range a.Out {
		n += len(out)
	}
	return n
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

// Reverse returns the reversed adjacency: for each state, the list of
// incoming edges expressed as Edge{Label, From}.
func (a *BA) Reverse() [][]Edge {
	a.EnsureEdges()
	in := make([][]Edge, a.NumStates())
	for from, out := range a.Out {
		for _, e := range out {
			in[e.To] = append(in[e.To], Edge{Label: e.Label, To: StateID(from)})
		}
	}
	return in
}

// Reachable returns the set of states reachable from Init (inclusive).
func (a *BA) Reachable() []bool {
	g := a.targets()
	seen := make([]bool, a.NumStates())
	stack := []StateID{a.Init}
	seen[a.Init] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, d := 0, g.deg(s); i < d; i++ {
			if t := g.at(s, i); !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return seen
}

// SCCs computes strongly connected components with an iterative
// Tarjan's algorithm. It returns the component index of every state;
// components are numbered in reverse topological order (a component's
// successors have smaller indices).
//
// It is the package's one Tarjan walk, over the targets view, so a
// shell is analysed straight from its CSR arrays without materializing
// Out.
func (a *BA) SCCs() (comp []int, count int) {
	var t Tarjan
	return t.walk(a.targets(), a.NumStates())
}

// Tarjan is the working memory of SCCs, kept between walks: a reused
// Tarjan allocates nothing once its arrays have grown to the largest
// graph it walked. The zero value is ready.
type Tarjan struct {
	comp, index, low []int
	onStack          []bool
	stack, order     []StateID
	work             []tarjanFrame
}

// Order returns the states of the last walk in component order, as
// the walk completed them: every state of component c comes before
// those of c+1.
func (t *Tarjan) Order() []StateID { return t.order }

type tarjanFrame struct {
	v    StateID
	edge int
}

func (t *Tarjan) walk(g targets, n int) (comp []int, count int) {
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
		work := append(t.work[:0], tarjanFrame{v: StateID(root)})
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.edge == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for d := g.deg(v); f.edge < d; {
				w := g.at(v, f.edge)
				f.edge++
				if index[w] == -1 {
					work = append(work, tarjanFrame{v: w})
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
//
// Like SCCs it reads a shell's CSR arrays, so the seed analysis
// permission.NewChecker runs on every projection quotient leaves the
// quotient compiled-only.
func (a *BA) OnAcceptingCycle() []bool {
	g := a.targets()
	comp, count := a.SCCs()
	// A component supports cycles iff it has an internal edge (this
	// covers both multi-state components and self-loops).
	cyclic := make([]bool, count)
	hasFinal := make([]bool, count)
	for from := range comp {
		for i, d := 0, g.deg(StateID(from)); i < d; i++ {
			if comp[from] == comp[g.at(StateID(from), i)] {
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
// leads from the state to a state marked in goal.
func (a *BA) CanReach(goal []bool) []bool {
	in := a.Reverse()
	out := make([]bool, a.NumStates())
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
		for _, e := range in[s] {
			if !out[e.To] {
				out[e.To] = true
				stack = append(stack, e.To)
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
	a.EnsureEdges()
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
	a.EnsureEdges()
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
	if remap[a.Init] == -1 {
		empty := New(1)
		for i := range remap {
			remap[i] = -1
		}
		return empty, remap
	}
	b := New(n)
	b.Init = remap[a.Init]
	b.Events = a.Events
	for s := range a.Out {
		if remap[s] == -1 {
			continue
		}
		if a.Final[s] {
			b.SetFinal(remap[s])
		}
		for _, e := range a.Out[s] {
			if remap[e.To] == -1 || !e.Label.Satisfiable() {
				continue
			}
			b.AddEdge(remap[s], e.Label, remap[e.To])
		}
	}
	return b, remap
}

// Clone returns a deep copy of the automaton.
func (a *BA) Clone() *BA {
	a.EnsureEdges()
	b := &BA{Init: a.Init, Events: a.Events}
	b.Final = append([]bool(nil), a.Final...)
	b.Out = make([][]Edge, len(a.Out))
	for i, out := range a.Out {
		b.Out[i] = append([]Edge(nil), out...)
	}
	return b
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

// Validate checks internal consistency: edge endpoints in range,
// labels satisfiable and within Events. It returns the first problem
// found.
func (a *BA) Validate() error {
	a.EnsureEdges()
	n := a.NumStates()
	if len(a.Final) != n {
		return fmt.Errorf("buchi: final vector length %d != %d states", len(a.Final), n)
	}
	if int(a.Init) < 0 || int(a.Init) >= n {
		return fmt.Errorf("buchi: initial state %d out of range", a.Init)
	}
	for s, out := range a.Out {
		for _, e := range out {
			if int(e.To) < 0 || int(e.To) >= n {
				return fmt.Errorf("buchi: edge %d->%d out of range", s, e.To)
			}
			if !e.Label.Satisfiable() {
				return fmt.Errorf("buchi: edge %d->%d has unsatisfiable label", s, e.To)
			}
			if !e.Label.Vars().SubsetOf(a.Events) {
				return fmt.Errorf("buchi: edge %d->%d label cites events outside Events", s, e.To)
			}
		}
	}
	return nil
}
