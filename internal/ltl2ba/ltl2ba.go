// Package ltl2ba translates LTL formulas to Büchi automata with
// conjunction-of-literal transition labels.
//
// The paper's prototype used the external LTL2BA tool [Gastin &
// Oddoux, CAV'01] for this step; we implement the translation from
// scratch along its lines, with acceptance on transitions [Couvreur,
// FM'99] until a single degeneralization at the end:
//
//  1. rewrite to negation normal form, simplify, and split the
//     top-level conjunction into its conjuncts (a contract's clauses);
//  2. per conjunct, hash-cons the NNF into dense formula ids; every
//     U/F id owns one acceptance mark;
//  3. compute each id's one-step cover once, on first use: the terms
//     (label, next ids, postponed marks) under which it holds now;
//  4. explore the states — bitsets of the ids that must hold from them
//     on, interned by their words — whose transitions are the products
//     of their members' covers, each carrying the marks it does not
//     postpone: a transition-based generalized Büchi automaton;
//  5. trim it, normalize its marks, and quotient it by forward
//     bisimulation over (label, marks, target class);
//  6. fold the conjuncts smallest-first by synchronous product, which
//     concatenates the marks, trimming and reducing every product;
//  7. degeneralize once, then reduce by forward and backward
//     bisimulation.
//
// TranslateBounded checks its context throughout. A translation
// needing more than 64 acceptance marks at once, or more than 64 MiB
// of state sets for one conjunct, fails with ErrTooLarge. The result
// accepts exactly the runs satisfying the formula; the package's tests
// verify this against the LTL lasso evaluator.
package ltl2ba

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/vocab"
)

// Translate builds a Büchi automaton accepting exactly the runs that
// satisfy f, without a size bound or a deadline. Atom names are
// interned into voc (which may grow). The automaton's Events field is
// the set of events cited by f — the contract vocabulary that
// permission semantics restricts to — even when simplification
// removes some of them from the labels.
func Translate(voc *vocab.Vocabulary, f *ltl.Expr) (*buchi.BA, error) {
	return TranslateBounded(context.Background(), voc, f, 0)
}

// translations counts every translation started, process-wide. The
// cold-start tests assert a snapshot load performs zero translations
// by diffing this counter around the load.
var translations atomic.Int64

// TranslationCount returns the process-wide number of LTL→BA
// translations started since program start.
func TranslationCount() int64 { return translations.Load() }

// ErrTooLarge reports a translation given up because an automaton
// exceeded the caller's state bound (which callers that reject large
// contracts anyway use to abort cheaply), or because it needed more
// than 64 acceptance marks or 64 MiB of state sets.
var ErrTooLarge = errors.New("ltl2ba: automaton exceeds the state bound")

// TranslateBounded is Translate under a context and an optional size
// bound. Once ctx is done the translation stops with an error wrapping
// ctx.Err(). maxStates ≤ 0 means unbounded; otherwise the final
// automaton may have at most maxStates states, and intermediate
// automata are abandoned once they exceed a generous multiple of it:
// raw ones (a trimmed product, the degeneralized result) at 40×,
// before paying for bisimulation, and reduced products at 8×.
// Top-level conjuncts (a contract's clauses, §2.2) are translated one
// by one and folded as generalized automata, so no product pays the
// two-copy flag of a Büchi intersection.
func TranslateBounded(ctx context.Context, voc *vocab.Vocabulary, f *ltl.Expr, maxStates int) (*buchi.BA, error) {
	translations.Add(1)
	var cited vocab.Set
	for _, name := range f.Atoms() {
		id, err := voc.Add(name)
		if err != nil {
			return nil, fmt.Errorf("ltl2ba: %w", err)
		}
		cited = cited.With(id)
	}
	check := func(what string, n, factor int) error {
		if maxStates > 0 && n > factor*maxStates {
			return fmt.Errorf("%w (%s reached %d states, bound %d)", ErrTooLarge, what, n, maxStates)
		}
		return nil
	}
	var conjuncts []*ltl.Expr
	collectConjuncts(ltl.Simplify(f), &conjuncts)
	parts := make([]*gba, len(conjuncts))
	var err error
	for i, g := range conjuncts {
		if parts[i], err = translateConjunct(ctx, voc, g); err != nil {
			return nil, err
		}
	}
	// Fold smallest-first: intermediate products stay smaller when the
	// tightly-constrained clauses meet early.
	sort.SliceStable(parts, func(i, j int) bool {
		return parts[i].auto.NumStates() < parts[j].auto.NumStates()
	})
	g := parts[0]
	for _, h := range parts[1:] {
		if g, err = product(ctx, g, h); err != nil {
			return nil, err
		}
		g = g.trim()
		if err := check("raw product", g.auto.NumStates(), 40); err != nil {
			return nil, err
		}
		if g, err = g.reduce(ctx); err != nil {
			return nil, err
		}
		if err := check("intermediate product", g.auto.NumStates(), 8); err != nil {
			return nil, err
		}
	}
	a, err := degeneralize(ctx, g)
	if err != nil {
		return nil, err
	}
	if err := check("degeneralized automaton", a.NumStates(), 40); err != nil {
		return nil, err
	}
	if a, err = shrink(ctx, a); err != nil {
		return nil, err
	}
	if err := check("automaton", a.NumStates(), 1); err != nil {
		return nil, err
	}
	a.Events = cited
	return a, nil
}

// canceled returns nil while ctx is live, and the translation's error
// once it is done.
func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("ltl2ba: translation canceled: %w", err)
	}
	return nil
}

func collectConjuncts(f *ltl.Expr, out *[]*ltl.Expr) {
	if f.Op == ltl.OpAnd {
		collectConjuncts(f.Left, out)
		collectConjuncts(f.Right, out)
		return
	}
	*out = append(*out, f)
}

// translateConjunct builds the reduced TGBA of one conjunct.
func translateConjunct(ctx context.Context, voc *vocab.Vocabulary, f *ltl.Expr) (*gba, error) {
	t := &translator{ctx: ctx, voc: voc, ids: map[formula]int32{}}
	root, err := t.intern(ltl.Simplify(ltl.NNF(f)))
	if err != nil {
		return nil, err
	}
	g, err := t.explore(root)
	if err != nil {
		return nil, err
	}
	return g.trim().reduce(ctx)
}

// shrink reduces the degeneralized automaton. It needs no trim: every
// state of the fold's result reaches a fair component, so every state
// of its degeneralization reaches an accepting cycle, unless the
// language is empty.
func shrink(ctx context.Context, a *buchi.BA) (*buchi.BA, error) {
	if len(a.Out[a.Init]) == 0 {
		return buchi.New(1), nil
	}
	a, err := bisim.ReduceBidirectional(ctx, a)
	if err != nil {
		return nil, canceled(ctx)
	}
	a.MergeAdjacentLabels()
	a.Normalize()
	return a, nil
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

// formula is one hash-consed NNF subformula: its operator, its
// operand ids (-1 when absent) and, for a literal, its label.
type formula struct {
	op   ltl.Op
	l, r int32
	lit  buchi.Label
}

// term is one way for formulas to hold at the current position: the
// snapshot satisfies lab, the ids in the set at next hold from the
// next position on, and the U/F obligations in post are postponed.
type term struct {
	lab  buchi.Label
	post uint64 // postponed acceptance marks
	next int32  // offset of the next-id set in the arena
}

// maxArena bounds a conjunct's id-set arena, in words (64 MiB): n
// subformulas over s states take about s·n/64 words, which 100,000
// nested X's would take to 1.25 GB.
const maxArena = 1 << 23

// translator holds one conjunct's formula ids, their covers, and the
// arena of id sets its terms and states share. Sets are w words; the
// set at offset 0 is empty.
type translator struct {
	ctx    context.Context
	voc    *vocab.Vocabulary
	forms  []formula
	ids    map[formula]int32
	mark   []uint64 // the acceptance mark a U/F id owns, else 0
	marks  int
	covers [][]term
	done   []bool
	w      int
	arena  []uint64
	ands   int   // calls of and, for the context checks
	err    error // the context's error, once a check found it done
}

// intern hash-conses the NNF formula e and returns its id.
func (t *translator) intern(e *ltl.Expr) (int32, error) {
	f := formula{op: e.Op, l: -1, r: -1}
	switch e.Op {
	case ltl.OpTrue, ltl.OpFalse:
	case ltl.OpAtom:
		ev, _ := t.voc.Lookup(e.Name)
		f.lit.Pos = f.lit.Pos.With(ev)
	case ltl.OpNext, ltl.OpFinally, ltl.OpGlobal, ltl.OpAnd, ltl.OpOr, ltl.OpUntil, ltl.OpRelease:
		var err error
		if f.l, err = t.intern(e.Left); err != nil {
			return -1, err
		}
		if e.Op.IsBinary() {
			if f.r, err = t.intern(e.Right); err != nil {
				return -1, err
			}
		}
	case ltl.OpNot:
		if e.Left.Op == ltl.OpAtom {
			ev, _ := t.voc.Lookup(e.Left.Name)
			f.lit.Neg = f.lit.Neg.With(ev)
			break
		}
		fallthrough
	default:
		return -1, fmt.Errorf("ltl2ba: internal: %s not in negation normal form", e)
	}
	if id, ok := t.ids[f]; ok {
		return id, nil
	}
	id := int32(len(t.forms))
	t.forms = append(t.forms, f)
	t.ids[f] = id
	var m uint64
	if f.op == ltl.OpUntil || f.op == ltl.OpFinally {
		if t.marks == 64 {
			return -1, fmt.Errorf("%w (more than 64 until subformulas in one conjunct)", ErrTooLarge)
		}
		m = 1 << t.marks
		t.marks++
	}
	t.mark = append(t.mark, m)
	return id, nil
}

// set returns the id set at offset off.
func (t *translator) set(off int32) []uint64 { return t.arena[off : int(off)+t.w] }

// singleton returns the offset of a new set holding id alone.
func (t *translator) singleton(id int32) int32 {
	off := int32(len(t.arena))
	t.arena = append(t.arena, make([]uint64, t.w)...)
	t.set(off)[id/64] |= 1 << (id % 64)
	return off
}

// subset reports whether set a is a subset of set b.
func (t *translator) subset(a, b int32) bool {
	if a == b || a == 0 {
		return true // offset 0 is the only empty set
	}
	y := t.set(b)
	for i, x := range t.set(a) {
		if x&^y[i] != 0 {
			return false
		}
	}
	return true
}

// union returns the offset of a ∪ b, reusing an operand that already
// holds the union.
func (t *translator) union(a, b int32) int32 {
	switch {
	case t.subset(a, b):
		return b
	case t.subset(b, a):
		return a
	}
	off := int32(len(t.arena))
	t.arena = append(t.arena, t.set(a)...)
	for i, y := range t.set(b) {
		t.arena[int(off)+i] |= y
	}
	return off
}

// step returns the cover of X id, postponing the marks in post: id
// must hold from the next position on. When goal is a literal, the
// term also requires its negation: an obligation is postponed only
// while its goal fails, which keeps the automata more deterministic.
func (t *translator) step(id int32, post uint64, goal int32) []term {
	var lab buchi.Label // ¬goal, when goal (-1 for none) is a literal
	if g := t.forms[max(goal, 0)]; goal >= 0 && (g.op == ltl.OpAtom || g.op == ltl.OpNot) {
		lab = buchi.Label{Pos: g.lit.Neg, Neg: g.lit.Pos}
	}
	switch t.forms[id].op {
	case ltl.OpTrue:
		return []term{{lab: lab, post: post}}
	case ltl.OpFalse:
		return nil
	}
	return []term{{lab: lab, post: post, next: t.singleton(id)}}
}

// cover returns id's one-step cover, computing it on first use.
func (t *translator) cover(id int32) []term {
	if t.done[id] {
		return t.covers[id]
	}
	f := t.forms[id]
	var c []term
	switch f.op {
	case ltl.OpTrue:
		c = []term{{}}
	case ltl.OpAtom, ltl.OpNot:
		c = []term{{lab: f.lit}}
	case ltl.OpAnd:
		c = t.and(t.cover(f.l), t.cover(f.r))
	case ltl.OpOr:
		c = t.or(t.cover(f.l), t.cover(f.r))
	case ltl.OpNext:
		c = t.step(f.l, 0, -1)
	case ltl.OpUntil: // μ U ψ: ψ ∨ (μ ∧ ¬ψ ∧ X(μ U ψ)), postponing
		c = t.or(t.cover(f.r), t.and(t.cover(f.l), t.step(id, t.mark[id], f.r)))
	case ltl.OpFinally: // F ψ: ψ ∨ (¬ψ ∧ X(F ψ)), postponing
		c = t.or(t.cover(f.l), t.step(id, t.mark[id], f.l))
	case ltl.OpRelease: // μ R ψ: (μ ∧ ψ) ∨ (ψ ∧ X(μ R ψ))
		c = t.or(t.and(t.cover(f.l), t.cover(f.r)), t.and(t.cover(f.r), t.step(id, 0, -1)))
	case ltl.OpGlobal: // G ψ: ψ ∧ X(G ψ)
		c = t.and(t.cover(f.l), t.step(id, 0, -1))
	}
	t.covers[id], t.done[id] = c, true
	return c
}

// and returns the pairwise conjunction of two covers. Every 32nd call
// checks the context, recording its error in t.err once it is done.
func (t *translator) and(a, b []term) []term {
	if t.ands++; t.ands%32 == 0 && t.err == nil {
		t.err = canceled(t.ctx)
	}
	if t.err != nil {
		return nil
	}
	out := make([]term, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			if !x.lab.Conflicts(y.lab) {
				out = append(out, term{lab: x.lab.And(y.lab), post: x.post | y.post, next: t.union(x.next, y.next)})
			}
		}
	}
	return t.prune(out)
}

// or returns the union of two covers.
func (t *translator) or(a, b []term) []term {
	return t.prune(append(slices.Clip(a), b...))
}

// prune drops, in place, every term another term dominates: one whose
// label needs no more literals, whose next set is no larger and which
// postpones no more marks. Of equal terms the first stays.
func (t *translator) prune(ts []term) []term {
	out := ts[:0] // never longer than the terms visited so far
	for _, x := range ts {
		if slices.ContainsFunc(out, func(y term) bool { return t.dominates(y, x) }) {
			continue
		}
		out = append(slices.DeleteFunc(out, func(y term) bool { return t.dominates(x, y) }), x)
	}
	return out
}

func (t *translator) dominates(y, x term) bool {
	return y.lab.ContainedIn(x.lab) && y.post&^x.post == 0 && t.subset(y.next, x.next)
}

// explore builds the TGBA of the formula root: states are the id sets
// reachable from {root}, and a state's transitions are the conjunction
// of its members' covers, each carrying the marks it does not
// postpone.
func (t *translator) explore(root int32) (*gba, error) {
	n := len(t.forms)
	t.w = (n + 63) / 64
	t.covers, t.done = make([][]term, n), make([]bool, n)
	t.arena = make([]uint64, t.w) // the empty set
	full := fullMask(t.marks)

	var states []int32 // id-set offset per state
	index := map[uint64][]buchi.StateID{}
	intern := func(off int32) buchi.StateID {
		h := hashWords(t.set(off))
		for _, s := range index[h] {
			if slices.Equal(t.set(states[s]), t.set(off)) {
				return s
			}
		}
		s := buchi.StateID(len(states))
		states, index[h] = append(states, off), append(index[h], s)
		return s
	}
	intern(t.singleton(root))
	var r rows
	for s := 0; s < len(states); s++ {
		if s%32 == 31 {
			if len(t.arena) > maxArena {
				return nil, fmt.Errorf("%w (state sets pass %d MiB)", ErrTooLarge, maxArena>>17)
			}
			if err := canceled(t.ctx); err != nil {
				return nil, err
			}
		}
		terms := []term{{}}
		for w, word := range t.set(states[s]) {
			for ; word != 0; word &= word - 1 {
				terms = t.and(terms, t.cover(int32(w*64+bits.TrailingZeros64(word))))
			}
		}
		if t.err != nil {
			return nil, t.err
		}
		for _, x := range terms {
			r.add(buchi.Edge{Label: x.lab, To: intern(x.next)}, full&^x.post)
		}
		r.next()
	}
	return r.done(0, t.marks), nil
}

func hashWords(ws []uint64) uint64 {
	h := uint64(len(ws))
	for _, w := range ws {
		h = bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 29)
	}
	return h
}

func fullMask(k int) uint64 { return ^uint64(0) >> (64 - k) }

// gba is a transition-based generalized Büchi automaton: a run is
// accepting iff it takes, for each of the k acceptance marks,
// infinitely many transitions carrying it. acc[s][i] holds the marks
// of auto.Out[s][i] as bits; auto's Final flags are unused.
type gba struct {
	auto *buchi.BA
	acc  [][]uint64
	k    int
}

// rows builds a gba's adjacency state by state, cutting every row from
// flat edge and mark buffers: a build allocates per buffer growth.
type rows struct {
	out   [][]buchi.Edge
	acc   [][]uint64
	edges []buchi.Edge
	marks []uint64
	lo    int // where the current row starts
}

func (r *rows) add(e buchi.Edge, mk uint64) {
	r.edges, r.marks = append(r.edges, e), append(r.marks, mk)
}

// next ends the current state's row.
func (r *rows) next() {
	n := len(r.edges)
	r.out, r.acc = append(r.out, r.edges[r.lo:n:n]), append(r.acc, r.marks[r.lo:n:n])
	r.lo = n
}

func (r *rows) done(init buchi.StateID, k int) *gba {
	a := &buchi.BA{Init: init, Final: make([]bool, len(r.out)), Out: r.out}
	return &gba{auto: a, acc: r.acc, k: k}
}

// pairs numbers the pairs (q, i), i < m, of a product-like
// construction densely, in the order they are first seen: queue[id]
// is q*m+i, and ids[q*m+i] is id+1, or 0 before (q, i) is seen.
type pairs struct {
	m     int
	ids   []int32
	queue []int
}

func (p *pairs) id(q, i int) buchi.StateID {
	k := q*p.m + i
	if p.ids[k] == 0 {
		p.queue = append(p.queue, k)
		p.ids[k] = int32(len(p.queue))
	}
	return buchi.StateID(p.ids[k] - 1)
}

// product is the synchronous product of two TGBAs over the pairs
// reachable from the initial pair: a transition exists where the two
// labels do not conflict, and carries their conjunction. Its marks are
// g's followed by h's, so a run is accepting iff both of its
// projections are.
func product(ctx context.Context, g, h *gba) (*gba, error) {
	if g.k+h.k > 64 {
		return nil, fmt.Errorf("%w (more than 64 acceptance marks in one product)", ErrTooLarge)
	}
	x, y := g.auto, h.auto
	ps := &pairs{m: y.NumStates(), ids: make([]int32, x.NumStates()*y.NumStates())}
	ps.id(int(x.Init), int(y.Init))
	var r rows
	for from := 0; from < len(ps.queue); from++ {
		if from%32 == 31 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		s, t := ps.queue[from]/ps.m, ps.queue[from]%ps.m
		for i, ex := range x.Out[s] {
			for j, ey := range y.Out[t] {
				if !ex.Label.Conflicts(ey.Label) {
					e := buchi.Edge{Label: ex.Label.And(ey.Label), To: ps.id(int(ex.To), int(ey.To))}
					r.add(e, g.acc[s][i]|h.acc[t][j]<<g.k)
				}
			}
		}
		r.next()
	}
	return r.done(0, g.k+h.k), nil
}

// trim restricts g, whose states explore or product reached from its
// initial state, to those that can reach a fair component (one whose
// internal transitions carry every mark). It then normalizes the
// marks, changing no run's acceptance: a transition between
// components, taken at most once, carries every mark; one inside an
// unfair component carries none; a mark set everywhere, or exactly
// where an earlier mark is, is dropped, sparing a counter level.
func (g *gba) trim() *gba {
	a := g.auto
	n := a.NumStates()
	full := fullMask(g.k)
	comp, count := a.SCCs()
	seen := make([]uint64, count)
	cyclic := make([]bool, count)
	for s, out := range a.Out {
		for i, e := range out {
			if c := comp[s]; c == comp[e.To] {
				cyclic[c] = true
				seen[c] |= g.acc[s][i]
			}
		}
	}
	fair := func(c int) bool { return cyclic[c] && seen[c] == full }
	// SCCs numbers components successors first, so one pass over the
	// states in component order settles which reach a fair component.
	order := make([]int, n)
	for s := range order {
		order[s] = s
	}
	slices.SortFunc(order, func(s, t int) int { return comp[s] - comp[t] })
	live := make([]bool, count)
	for _, s := range order {
		c := comp[s]
		live[c] = live[c] || fair(c)
		for _, e := range a.Out[s] {
			live[c] = live[c] || live[comp[e.To]]
		}
	}
	if !live[comp[a.Init]] {
		return &gba{auto: buchi.New(1), acc: make([][]uint64, 1)} // empty language
	}
	remap := make([]buchi.StateID, n)
	m := buchi.StateID(0)
	for s, c := range comp {
		if remap[s] = m; live[c] {
			m++
		}
	}
	var r rows
	everywhere := full
	for s, out := range a.Out {
		if !live[comp[s]] {
			continue
		}
		for i, e := range out {
			if !live[comp[e.To]] {
				continue
			}
			mk := full
			if c := comp[s]; c == comp[e.To] {
				mk = 0
				if fair(c) {
					mk = g.acc[s][i]
				}
			}
			r.add(buchi.Edge{Label: e.Label, To: remap[e.To]}, mk)
			everywhere &= mk
		}
		r.next()
	}
	same := func(i, j int) bool { // marks i and j sit on the same transitions
		return !slices.ContainsFunc(r.marks, func(mk uint64) bool { return mk>>i&1 != mk>>j&1 })
	}
	var kept []int
	for j := range g.k {
		if everywhere>>j&1 == 0 && !slices.ContainsFunc(kept, func(i int) bool { return same(i, j) }) {
			kept = append(kept, j)
		}
	}
	for _, row := range r.acc { // r.marks may have outgrown early rows
		for i, mk := range row {
			var packed uint64
			for to, from := range kept {
				packed |= mk >> from & 1 << to
			}
			row[i] = packed
		}
	}
	return r.done(remap[a.Init], len(kept))
}

// reduce quotients g by forward bisimulation over labeled, marked
// transitions: equivalent states mimic each other's transitions, with
// equal labels and marks, into equivalent states, so the quotient
// accepts the same language.
func (g *gba) reduce(ctx context.Context) (*gba, error) {
	a := g.auto
	n := a.NumStates()
	if n <= 1 {
		return g, nil
	}
	keys := map[[3]uint64]int32{} // label and marks
	off := make([]int32, n+1)
	var key, to []int32
	for s, out := range a.Out {
		for i, e := range out {
			lm := [3]uint64{uint64(e.Label.Pos), uint64(e.Label.Neg), g.acc[s][i]}
			id, ok := keys[lm]
			if !ok {
				id = int32(len(keys))
				keys[lm] = id
			}
			key, to = append(key, id), append(to, int32(e.To))
		}
		off[s+1] = int32(len(key))
	}
	p, err := bisim.RefineEdges(ctx, off, key, to, make([]int32, n))
	if err != nil {
		return nil, canceled(ctx)
	}
	if p.Count == n {
		return g, nil
	}
	// Classes are numbered by first occurrence in state order, so each
	// class's first member comes up in class order; its transitions
	// speak for the class.
	var r rows
	for s, out := range a.Out {
		if int(p.Class[s]) < len(r.out) {
			continue
		}
	edges:
		for i, e := range out {
			e.To = buchi.StateID(p.Class[e.To])
			for j, f := range r.edges[r.lo:] {
				if f == e && r.marks[r.lo+j] == g.acc[s][i] {
					continue edges
				}
			}
			r.add(e, g.acc[s][i])
		}
		r.next()
	}
	return r.done(buchi.StateID(p.Class[a.Init]), g.k), nil
}

// degeneralize applies the counter construction: state (q, i) has
// seen marks 0..i-1 since the last round; a transition inside a
// component advances the counter past every next mark it carries, and
// the states at level k, which complete a round, are accepting and
// continue as level 0. Where a run enters a component does not matter
// to its acceptance, so an entering transition takes the level the
// target's own component transitions give it: k when all carry every
// mark, else 0.
func degeneralize(ctx context.Context, g *gba) (*buchi.BA, error) {
	a, k := g.auto, g.k
	comp, _ := a.SCCs()
	entry := make([]int, a.NumStates())
	for q := range entry {
		entry[q] = k
	}
	for s, out := range a.Out {
		for i, e := range out {
			if comp[s] == comp[e.To] && g.acc[s][i] != fullMask(k) {
				entry[e.To] = 0
			}
		}
	}
	ps := &pairs{m: k + 1, ids: make([]int32, a.NumStates()*(k+1))}
	ps.id(int(a.Init), entry[a.Init])
	out := &buchi.BA{}
	var edges []buchi.Edge // the rows of out.Out, as rows cuts them
	for from := 0; from < len(ps.queue); from++ {
		if from%32 == 31 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		q, i := ps.queue[from]/ps.m, ps.queue[from]%ps.m
		out.Final = append(out.Final, i == k)
		if i == k {
			i = 0
		}
		lo := len(edges)
		for idx, e := range a.Out[q] {
			j := i
			for j < k && g.acc[q][idx]>>j&1 != 0 {
				j++
			}
			if comp[q] != comp[e.To] {
				j = entry[e.To]
			}
			edges = addMinimal(edges, lo, buchi.Edge{Label: e.Label, To: ps.id(int(e.To), j)})
		}
		out.Out = append(out.Out, edges[lo:len(edges):len(edges)])
	}
	return out, nil
}

// addMinimal adds e to the row edges[lo:] unless a transition to the
// same target with a weaker label is there, dropping those e subsumes
// and merging it with one whose label differs in one literal's sign.
func addMinimal(edges []buchi.Edge, lo int, e buchi.Edge) []buchi.Edge {
	for {
		row := edges[lo:]
		for _, f := range row {
			if f.To == e.To && f.Label.ContainedIn(e.Label) {
				return edges
			}
		}
		row = slices.DeleteFunc(row, func(f buchi.Edge) bool {
			return f.To == e.To && e.Label.ContainedIn(f.Label)
		})
		edges = edges[:lo+len(row)]
		i := slices.IndexFunc(row, func(f buchi.Edge) bool { // (µ∧x) ∨ (µ∧¬x) = µ
			return f.To == e.To && f.Label.Vars() == e.Label.Vars() && bits.OnesCount64(uint64(f.Label.Pos^e.Label.Pos)) == 1
		})
		if i < 0 {
			return append(edges, e)
		}
		d := row[i].Label.Pos ^ e.Label.Pos
		e.Label = buchi.Label{Pos: e.Label.Pos &^ d, Neg: e.Label.Neg &^ d}
		edges = slices.Delete(edges, lo+i, lo+i+1)
	}
}
