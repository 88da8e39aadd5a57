// Package ltl2ba translates LTL formulas to Büchi automata with
// conjunction-of-literal transition labels.
//
// The paper's prototype used the external LTL2BA tool [Gastin &
// Oddoux, CAV'01] for this step; we implement the translation from
// scratch. Like LTL2BA, it keeps generalized acceptance until the very
// end. The pipeline is:
//
//  1. rewrite to negation normal form over {literals, ∧, ∨, X, U, R,
//     F, G}, simplify, and split the top-level conjunction into its
//     conjuncts (a contract's clauses, §2.2);
//  2. per conjunct, GPVW tableau expansion [Gerth, Peled, Vardi,
//     Wolper '95] yielding a generalized Büchi automaton (GBA) with
//     one acceptance set per U/F subformula;
//  3. per GBA, reduction: trim to the reachable states that can reach
//     a cycle meeting every acceptance set, normalize the acceptance
//     sets (dropping duplicate and all-state sets), and quotient by
//     forward bisimulation seeded with each state's set memberships;
//  4. fold the conjuncts smallest-first by synchronous product,
//     concatenating acceptance sets, and reduce every product as in 3;
//  5. degeneralize the final product once, by the counter
//     construction, then trim and reduce it by forward and backward
//     bisimulation.
//
// The result accepts exactly the runs satisfying the formula; the
// package's tests verify this against the LTL lasso evaluator.
package ltl2ba

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"sync/atomic"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/vocab"
)

// Translate builds a Büchi automaton accepting exactly the runs that
// satisfy f. Atom names are interned into voc (which may grow). The
// automaton's Events field is the set of events cited by f — the
// contract vocabulary that permission semantics restricts to — even
// when simplification removes some of them from the labels.
//
// Top-level conjunctions (the shape of every contract: common clauses
// ∧ ticket clauses, §2.2) are translated clause-by-clause, which
// avoids the exponential tableau over the conjunction. The clauses
// stay generalized Büchi automata until the end: their synchronous
// product concatenates the acceptance sets, so no product pays the
// two-copy flag of a Büchi intersection, and every intermediate
// product is trimmed and reduced. Only the final product is
// degeneralized.
func Translate(voc *vocab.Vocabulary, f *ltl.Expr) (*buchi.BA, error) {
	return TranslateBounded(voc, f, 0)
}

// translations counts every translation started, process-wide. The
// cold-start tests assert a snapshot load performs zero translations
// by diffing this counter around the load.
var translations atomic.Int64

// TranslationCount returns the process-wide number of LTL→BA
// translations started since program start.
func TranslationCount() int64 { return translations.Load() }

// ErrTooLarge reports that a bounded translation gave up because an
// intermediate (or the final) automaton exceeded the caller's state
// limit. Callers that reject oversized contracts anyway (the
// experiment harness, Options.MaxAutomatonStates) use the bound to
// abort cheaply instead of building the full product first.
var ErrTooLarge = errors.New("ltl2ba: automaton exceeds the state bound")

// TranslateBounded is Translate with an optional size bound:
// maxStates ≤ 0 means unbounded; otherwise the final automaton may
// have at most maxStates states, and intermediate automata are
// abandoned once they exceed a generous multiple of it (reduction can
// shrink intermediates, so the early-abort threshold is deliberately
// loose).
func TranslateBounded(voc *vocab.Vocabulary, f *ltl.Expr, maxStates int) (*buchi.BA, error) {
	translations.Add(1)
	cited, err := eventSet(voc, f)
	if err != nil {
		return nil, err
	}
	var conjuncts []*ltl.Expr
	collectConjuncts(ltl.Simplify(f), &conjuncts)
	parts := make([]*gba, len(conjuncts))
	for i, g := range conjuncts {
		if parts[i], err = translateConjunct(voc, g); err != nil {
			return nil, err
		}
	}
	// Fold smallest-first: intermediate products stay smaller when the
	// tightly-constrained clauses meet early.
	sort.SliceStable(parts, func(i, j int) bool {
		return parts[i].auto.NumStates() < parts[j].auto.NumStates()
	})
	// Reduction can shrink intermediates below the final bound, so the
	// early-abort thresholds are deliberately loose: raw automata (a
	// trimmed product, the degeneralized result) are abandoned at 40×
	// the bound before paying for bisimulation, reduced products at 8×.
	rawBound, intermediateBound := 0, 0
	if maxStates > 0 {
		rawBound, intermediateBound = 40*maxStates, 8*maxStates
	}
	g := parts[0]
	for _, h := range parts[1:] {
		g = product(g, h).trim()
		if rawBound > 0 && g.auto.NumStates() > rawBound {
			return nil, fmt.Errorf("%w (raw product reached %d states, bound %d)",
				ErrTooLarge, g.auto.NumStates(), maxStates)
		}
		g = g.reduce()
		if intermediateBound > 0 && g.auto.NumStates() > intermediateBound {
			return nil, fmt.Errorf("%w (intermediate product reached %d states, bound %d)",
				ErrTooLarge, g.auto.NumStates(), maxStates)
		}
	}
	a := degeneralize(g)
	if rawBound > 0 && a.NumStates() > rawBound {
		return nil, fmt.Errorf("%w (degeneralized automaton reached %d states, bound %d)",
			ErrTooLarge, a.NumStates(), maxStates)
	}
	a = shrink(a)
	if maxStates > 0 && a.NumStates() > maxStates {
		return nil, fmt.Errorf("%w (%d states, bound %d)", ErrTooLarge, a.NumStates(), maxStates)
	}
	a.Events = cited
	return a, nil
}

func collectConjuncts(f *ltl.Expr, out *[]*ltl.Expr) {
	if f.Op == ltl.OpAnd {
		collectConjuncts(f.Left, out)
		collectConjuncts(f.Right, out)
		return
	}
	*out = append(*out, f)
}

// translateConjunct builds the reduced tableau GBA of one conjunct.
func translateConjunct(voc *vocab.Vocabulary, f *ltl.Expr) (*gba, error) {
	g := ltl.Simplify(ltl.NNF(f))
	t := newTableau(voc)
	if err := t.check(g); err != nil {
		return nil, err
	}
	t.expandFrom(g)
	return t.build(g).trim().reduce(), nil
}

// shrink trims and reduces the degeneralized automaton.
func shrink(a *buchi.BA) *buchi.BA {
	a, _ = a.Trim()
	a.MergeAdjacentLabels()
	a.Normalize()
	a = bisim.ReduceBidirectional(a)
	a.MergeAdjacentLabels()
	a.Normalize()
	return a
}

// MustTranslate is Translate, panicking on error; for tests and fixed
// formulas.
func MustTranslate(voc *vocab.Vocabulary, f *ltl.Expr) *buchi.BA {
	a, err := Translate(voc, f)
	if err != nil {
		panic(err)
	}
	return a
}

func eventSet(voc *vocab.Vocabulary, f *ltl.Expr) (vocab.Set, error) {
	var s vocab.Set
	for _, name := range f.Atoms() {
		id, err := voc.Add(name)
		if err != nil {
			return 0, fmt.Errorf("ltl2ba: %w", err)
		}
		s = s.With(id)
	}
	return s, nil
}

// formula set representation: formulas are interned to dense ids; sets
// are bitsets over those ids (tableaux for our workloads stay well
// under a few hundred distinct subformulas, but we do not rely on
// that — the bitset grows as needed).

type fset struct{ bits []uint64 }

func (s fset) has(i int) bool {
	w := i / 64
	return w < len(s.bits) && s.bits[w]&(1<<uint(i%64)) != 0
}

func (s *fset) add(i int) {
	w := i / 64
	for len(s.bits) <= w {
		s.bits = append(s.bits, 0)
	}
	s.bits[w] |= 1 << uint(i%64)
}

func (s *fset) remove(i int) {
	w := i / 64
	if w < len(s.bits) {
		s.bits[w] &^= 1 << uint(i%64)
	}
}

func (s fset) empty() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s fset) clone() fset {
	return fset{bits: append([]uint64(nil), s.bits...)}
}

func (s fset) pick() int {
	for w, word := range s.bits {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// key renders the set as comma-terminated hex words; equal sets, and
// only equal sets, get equal keys.
func (s fset) key() string {
	// Trailing zero words must not distinguish equal sets.
	end := len(s.bits)
	for end > 0 && s.bits[end-1] == 0 {
		end--
	}
	buf := make([]byte, 0, 17*end)
	for _, word := range s.bits[:end] {
		buf = strconv.AppendUint(buf, word, 16)
		buf = append(buf, ',')
	}
	return string(buf)
}

func (s fset) each(fn func(int)) {
	for w, word := range s.bits {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1 // clear the lowest set bit
		}
	}
}

type tableau struct {
	voc *vocab.Vocabulary

	// interned subformulas
	exprs []*ltl.Expr
	ids   map[string]int

	nodes []*gnode
	byKey map[string]int // old.key|next.key → node index
}

type gnode struct {
	incoming []int // node indices; -1 denotes the virtual initial state
	old      fset
	next     fset
}

func newTableau(voc *vocab.Vocabulary) *tableau {
	return &tableau{voc: voc, ids: map[string]int{}, byKey: map[string]int{}}
}

// check validates that the formula is in the fragment expand supports.
func (t *tableau) check(f *ltl.Expr) error {
	var bad *ltl.Expr
	f.Walk(func(e *ltl.Expr) {
		switch e.Op {
		case ltl.OpAtom, ltl.OpTrue, ltl.OpFalse, ltl.OpAnd, ltl.OpOr,
			ltl.OpNext, ltl.OpUntil, ltl.OpRelease, ltl.OpFinally, ltl.OpGlobal:
		case ltl.OpNot:
			if e.Left.Op != ltl.OpAtom && bad == nil {
				bad = e
			}
		default:
			if bad == nil {
				bad = e
			}
		}
	})
	if bad != nil {
		return fmt.Errorf("ltl2ba: internal: %s not in negation normal form", bad)
	}
	return nil
}

func (t *tableau) intern(f *ltl.Expr) int {
	key := f.String()
	if id, ok := t.ids[key]; ok {
		return id
	}
	id := len(t.exprs)
	t.exprs = append(t.exprs, f)
	t.ids[key] = id
	return id
}

// expansion node: a work-in-progress tableau node. Following GPVW,
// New holds obligations not yet decomposed, Old the processed ones,
// Next the obligations deferred to the successor.
type wnode struct {
	incoming []int
	new_     fset
	old      fset
	next     fset
}

func (t *tableau) expandFrom(g *ltl.Expr) {
	start := &wnode{incoming: []int{-1}}
	start.new_.add(t.intern(g))
	t.expand(start)
}

func (t *tableau) expand(n *wnode) {
	if n.new_.empty() {
		key := n.old.key() + "|" + n.next.key()
		if idx, ok := t.byKey[key]; ok {
			t.nodes[idx].incoming = append(t.nodes[idx].incoming, n.incoming...)
			return
		}
		idx := len(t.nodes)
		t.nodes = append(t.nodes, &gnode{incoming: n.incoming, old: n.old, next: n.next})
		t.byKey[key] = idx
		succ := &wnode{incoming: []int{idx}, new_: n.next.clone()}
		t.expand(succ)
		return
	}
	id := n.new_.pick()
	n.new_.remove(id)
	f := t.exprs[id]
	switch f.Op {
	case ltl.OpFalse:
		return // contradiction: discard this node
	case ltl.OpTrue:
		n.old.add(id)
		t.expand(n)
	case ltl.OpAtom, ltl.OpNot:
		if n.old.has(t.intern(negation(f))) {
			return // conflicting literal: discard
		}
		n.old.add(id)
		t.expand(n)
	case ltl.OpAnd:
		n.old.add(id)
		t.addNew(n, f.Left)
		t.addNew(n, f.Right)
		t.expand(n)
	case ltl.OpNext:
		n.old.add(id)
		n.next.add(t.intern(f.Left))
		t.expand(n)
	case ltl.OpOr:
		n1 := t.split(n, id)
		t.addNew(n1, f.Left)
		n2 := n
		n2.old.add(id)
		t.addNew(n2, f.Right)
		t.expand(n1)
		t.expand(n2)
	case ltl.OpUntil: // μ U ψ: (μ ∧ X(μUψ)) ∨ ψ
		n1 := t.split(n, id)
		t.addNew(n1, f.Left)
		n1.next.add(id)
		n2 := n
		n2.old.add(id)
		t.addNew(n2, f.Right)
		t.expand(n1)
		t.expand(n2)
	case ltl.OpFinally: // F ψ: X(Fψ) ∨ ψ
		n1 := t.split(n, id)
		n1.next.add(id)
		n2 := n
		n2.old.add(id)
		t.addNew(n2, f.Left)
		t.expand(n1)
		t.expand(n2)
	case ltl.OpRelease: // μ R ψ: (ψ ∧ X(μRψ)) ∨ (μ ∧ ψ)
		n1 := t.split(n, id)
		t.addNew(n1, f.Right)
		n1.next.add(id)
		n2 := n
		n2.old.add(id)
		t.addNew(n2, f.Left)
		t.addNew(n2, f.Right)
		t.expand(n1)
		t.expand(n2)
	case ltl.OpGlobal: // G ψ: ψ ∧ X(Gψ)
		n.old.add(id)
		t.addNew(n, f.Left)
		n.next.add(id)
		t.expand(n)
	default:
		panic("ltl2ba: unexpected operator " + f.Op.String())
	}
}

// split returns a copy of n for the first disjunct, marking id old in
// it; the caller mutates the original for the second disjunct.
func (t *tableau) split(n *wnode, id int) *wnode {
	cp := &wnode{
		incoming: append([]int(nil), n.incoming...),
		new_:     n.new_.clone(),
		old:      n.old.clone(),
		next:     n.next.clone(),
	}
	cp.old.add(id)
	return cp
}

// addNew queues f for decomposition unless it was already processed.
func (t *tableau) addNew(n *wnode, f *ltl.Expr) {
	id := t.intern(f)
	if !n.old.has(id) {
		n.new_.add(id)
	}
}

func negation(f *ltl.Expr) *ltl.Expr {
	if f.Op == ltl.OpNot {
		return f.Left
	}
	return ltl.Not(f)
}

// gba is a generalized Büchi automaton with labels on transitions: a
// run is accepting iff it visits every acceptance set infinitely
// often. auto holds the transitions (its Final marks are unused) and
// accept[i][s] reports whether state s belongs to acceptance set i.
// With no acceptance sets every run is accepting.
type gba struct {
	auto   *buchi.BA
	accept [][]bool
}

// build converts the expanded node set into a transition-labeled
// generalized BA. State 0 is a fresh initial state; node i becomes
// state i+1, every incoming edge of a node is labeled with the
// conjunction of the literals in the node's Old set.
func (t *tableau) build(g *ltl.Expr) *gba {
	a := buchi.New(len(t.nodes) + 1)
	a.Init = 0
	labels := make([]buchi.Label, len(t.nodes))
	for i, n := range t.nodes {
		labels[i] = t.labelOf(n)
	}
	for i, n := range t.nodes {
		for _, in := range n.incoming {
			a.AddEdge(buchi.StateID(in+1), labels[i], buchi.StateID(i+1))
		}
	}

	// One acceptance set per until-like subformula η = μ U ψ (or Fψ):
	// states where η is not promised, or where its goal ψ is realized.
	var untils []*ltl.Expr
	seen := map[int]bool{}
	g.Walk(func(e *ltl.Expr) {
		if e.Op == ltl.OpUntil || e.Op == ltl.OpFinally {
			id := t.intern(e)
			if !seen[id] {
				seen[id] = true
				untils = append(untils, e)
			}
		}
	})
	res := &gba{auto: a}
	for _, u := range untils {
		uid := t.intern(u)
		goal := u.Right
		if u.Op == ltl.OpFinally {
			goal = u.Left
		}
		gid := t.intern(goal)
		set := make([]bool, a.NumStates())
		set[0] = true // the transient initial state constrains nothing
		for i, n := range t.nodes {
			if !n.old.has(uid) || n.old.has(gid) {
				set[i+1] = true
			}
		}
		res.accept = append(res.accept, set)
	}
	return res
}

func (t *tableau) labelOf(n *gnode) buchi.Label {
	var l buchi.Label
	n.old.each(func(id int) {
		f := t.exprs[id]
		switch {
		case f.Op == ltl.OpAtom:
			ev, _ := t.voc.Lookup(f.Name)
			l.Pos = l.Pos.With(ev)
		case f.Op == ltl.OpNot && f.Left.Op == ltl.OpAtom:
			ev, _ := t.voc.Lookup(f.Left.Name)
			l.Neg = l.Neg.With(ev)
		}
	})
	return l
}

// product is the synchronous product of two GBAs over the pairs
// reachable from the initial pair: a transition exists where the two
// labels do not conflict, and carries their conjunction. The
// acceptance sets are g's followed by h's, each lifted to the pairs,
// so a run is accepting iff both of its projections are.
func product(g, h *gba) *gba {
	x, y := g.auto, h.auto
	ny := y.NumStates()
	ids := make([]int32, x.NumStates()*ny)
	for i := range ids {
		ids[i] = -1
	}
	out := buchi.New(0)
	var pairs []int // pair index s*ny+t per product state
	intern := func(s, t buchi.StateID) buchi.StateID {
		k := int(s)*ny + int(t)
		if ids[k] < 0 {
			ids[k] = int32(out.AddState())
			pairs = append(pairs, k)
		}
		return buchi.StateID(ids[k])
	}
	out.Init = intern(x.Init, y.Init)
	for from := 0; from < len(pairs); from++ {
		s, t := pairs[from]/ny, pairs[from]%ny
		for _, ex := range x.Out[s] {
			for _, ey := range y.Out[t] {
				if !ex.Label.Conflicts(ey.Label) {
					out.AddEdge(buchi.StateID(from), ex.Label.And(ey.Label), intern(ex.To, ey.To))
				}
			}
		}
	}
	accept := make([][]bool, 0, len(g.accept)+len(h.accept))
	lift := func(set []bool, side func(pair int) int) {
		lifted := make([]bool, len(pairs))
		for i, k := range pairs {
			lifted[i] = set[side(k)]
		}
		accept = append(accept, lifted)
	}
	for _, set := range g.accept {
		lift(set, func(k int) int { return k / ny })
	}
	for _, set := range h.accept {
		lift(set, func(k int) int { return k % ny })
	}
	return &gba{auto: out, accept: accept}
}

// trim restricts g to the states reachable from the initial state
// that can reach a fair component: a strongly connected component
// with a cycle that meets every acceptance set. It then normalizes
// the acceptance sets, which changes no run's acceptance:
//
//   - a state on no cycle is visited at most once by any run, so it
//     joins every set;
//   - a run that stays in an unfair cyclic component is rejected
//     whatever its states belong to, so they leave every set;
//   - a set holding every state, or equal to an earlier set, is
//     dropped.
//
// Uniform memberships let reduce merge more states, and every dropped
// set spares degeneralize a counter level.
func (g *gba) trim() *gba {
	a := g.auto
	n := a.NumStates()
	comp, count := a.SCCs()
	cyclic := make([]bool, count)
	for s, out := range a.Out {
		for _, e := range out {
			if comp[s] == comp[e.To] {
				cyclic[comp[s]] = true
			}
		}
	}
	fair := append([]bool(nil), cyclic...)
	meets := make([]bool, count)
	for _, set := range g.accept {
		clear(meets)
		for s, in := range set {
			if in {
				meets[comp[s]] = true
			}
		}
		for c := range fair {
			fair[c] = fair[c] && meets[c]
		}
	}
	goal := make([]bool, n)
	for s := range goal {
		goal[s] = fair[comp[s]]
	}
	keep := a.Reachable()
	for s, live := range a.CanReach(goal) {
		keep[s] = keep[s] && live
	}
	b, remap := a.Restrict(keep)
	if remap[a.Init] < 0 {
		return &gba{auto: b} // empty language
	}
	var accept [][]bool
	seen := map[string]bool{}
	key := make([]byte, b.NumStates())
	for _, set := range g.accept {
		norm := make([]bool, b.NumStates())
		full := true
		for s, to := range remap {
			if to < 0 {
				continue
			}
			c := comp[s]
			norm[to] = !cyclic[c] || fair[c] && set[s]
			full = full && norm[to]
			key[to] = 0
			if norm[to] {
				key[to] = 1
			}
		}
		if !full && !seen[string(key)] {
			seen[string(key)] = true
			accept = append(accept, norm)
		}
	}
	return &gba{auto: b, accept: accept}
}

// reduce quotients g by forward bisimulation, seeded so that states
// in different acceptance sets start apart: equivalent states belong
// to the same sets and mimic each other's labeled transitions into
// equivalent states, so the quotient accepts the same language.
func (g *gba) reduce() *gba {
	a := g.auto
	a.MergeAdjacentLabels()
	a.Normalize()
	n := a.NumStates()
	start := make([]int, n)
	classes := map[string]int{}
	sig := make([]byte, len(g.accept))
	for s := range start {
		for i, set := range g.accept {
			sig[i] = 0
			if set[s] {
				sig[i] = 1
			}
		}
		c, ok := classes[string(sig)]
		if !ok {
			c = len(classes)
			classes[string(sig)] = c
		}
		start[s] = c
	}
	p := bisim.RefineProjected(a, bisim.Partition{Class: start, Count: len(classes)}, ^vocab.Set(0))
	if p.Count == n {
		return g
	}
	accept := make([][]bool, len(g.accept))
	for i, set := range g.accept {
		accept[i] = make([]bool, p.Count)
		for s, c := range p.Class {
			accept[i][c] = set[s]
		}
	}
	return &gba{auto: bisim.Quotient(a, p, ^vocab.Set(0)), accept: accept}
}

// degeneralize applies the counter construction to the states
// reachable from (Init, 0): state (q, i) waits for acceptance set i.
// Leaving q, the counter skips every set from i on that q belongs to;
// a state whose skip passes the last set completes a round, is
// accepting, and restarts the counter at 0. A run completes rounds
// infinitely often iff it visits every set infinitely often. With no
// acceptance sets every run is accepting and the automaton is
// returned with all states final.
func degeneralize(g *gba) *buchi.BA {
	a, k := g.auto, len(g.accept)
	if k == 0 {
		b := a.Clone()
		for s := range b.Final {
			b.Final[s] = true
		}
		return b
	}
	ids := make([]int32, a.NumStates()*k)
	for i := range ids {
		ids[i] = -1
	}
	out := buchi.New(0)
	var queue []int // q*k+i per state of out
	intern := func(q buchi.StateID, i int) buchi.StateID {
		key := int(q)*k + i
		if ids[key] < 0 {
			ids[key] = int32(out.AddState())
			queue = append(queue, key)
		}
		return buchi.StateID(ids[key])
	}
	out.Init = intern(a.Init, 0)
	for from := 0; from < len(queue); from++ {
		q, i := queue[from]/k, queue[from]%k
		for i < k && g.accept[i][q] {
			i++
		}
		if i == k {
			out.SetFinal(buchi.StateID(from))
			i = 0
		}
		for _, e := range a.Out[q] {
			out.AddEdge(buchi.StateID(from), e.Label, intern(e.To, i))
		}
	}
	return out
}
