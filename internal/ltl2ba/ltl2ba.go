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
// of state sets and terms for one conjunct, fails with ErrTooLarge.
// The result accepts exactly the runs satisfying the formula; the
// package's tests verify this against the LTL lasso evaluator.
package ltl2ba

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
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
// than 64 acceptance marks or 64 MiB of state sets and terms.
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
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	sc.conjuncts = collectConjuncts(ltl.Simplify(f), sc.conjuncts[:0])
	for _, c := range sc.conjuncts {
		g, err := sc.conjunct(ctx, voc, c)
		if err != nil {
			return nil, err
		}
		sc.parts = append(sc.parts, g)
	}
	// Fold smallest-first: intermediate products stay smaller when the
	// tightly-constrained clauses meet early.
	slices.SortStableFunc(sc.parts, func(g, h *gba) int { return g.NumStates() - h.NumStates() })
	g := sc.parts[0]
	var err error
	for _, h := range sc.parts[1:] {
		if g, err = sc.product(ctx, g, h); err != nil {
			return nil, err
		}
		g = sc.trim(g)
		if err := check("raw product", g.NumStates(), 40); err != nil {
			return nil, err
		}
		if g, err = sc.reduce(ctx, g); err != nil {
			return nil, err
		}
		if err := check("intermediate product", g.NumStates(), 8); err != nil {
			return nil, err
		}
	}
	if g, err = sc.degeneralize(ctx, g); err != nil {
		return nil, err
	}
	if err := check("degeneralized automaton", g.NumStates(), 40); err != nil {
		return nil, err
	}
	a, err := sc.shrink(ctx, g, cited)
	if err != nil {
		return nil, err
	}
	if err := check("automaton", a.NumStates(), 1); err != nil {
		return nil, err
	}
	return a, nil
}

// maxScratch is the size, in bytes, past which a scratch is dropped
// instead of pooled, so one hostile query cannot pin its memory.
const maxScratch = 1 << 20

// scratch is one translation's working memory: the translator's
// tables, every intermediate automaton's slabs and the stages' working
// arrays. Like the permission kernels' search arenas, scratches are
// pooled: once the pool is warm, a translation allocates little beyond
// the automaton it returns.
type scratch struct {
	t         translator
	conjuncts []*ltl.Expr
	parts     []*gba
	free      []*gba // released automata, whose slabs are reused
	pairs     pairs
	scc       buchi.Tarjan
	merge     buchi.LabelMerger
	reducer   bisim.Reducer
	keys      buchi.KeyTable // reduce: (label, marks) → key

	key, to, class, entry []int32
	remap                 []buchi.StateID
	comps                 []struct {
		seen         uint64
		cyclic, live bool
	} // trim, per SCC
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{t: translator{ids: map[formula]int32{}, heads: map[uint64]int32{}}}
}}

// gba returns an empty automaton, reusing a released one's slabs.
func (sc *scratch) gba() *gba {
	if len(sc.free) == 0 {
		sc.free = append(sc.free, new(gba))
	}
	g := sc.free[len(sc.free)-1]
	sc.free = sc.free[:len(sc.free)-1]
	g.Reset()
	g.acc, g.k = g.acc[:0], 0
	return g
}

// put releases g: nothing may read it afterwards.
func (sc *scratch) put(g *gba) { sc.free = append(sc.free, g) }

// release returns sc to the pool, unless it has outgrown maxScratch.
func (sc *scratch) release() {
	t := &sc.t
	clear(sc.conjuncts[:cap(sc.conjuncts)])
	clear(sc.parts[:cap(sc.parts)])
	sc.parts = sc.parts[:0]
	t.ctx, t.voc = nil, nil
	// Maps keep their capacity; the slabs filled beside them tell it.
	size := 8*cap(t.arena) + 40*cap(t.terms) + 64*(cap(t.forms)+cap(t.states)) + 8*cap(sc.key) +
		4*cap(sc.pairs.ids) + sc.keys.Bytes() + sc.merge.Bytes() + sc.reducer.Size()
	for _, g := range sc.free {
		size += 24*cap(g.Edges) + 8*cap(g.acc)
	}
	if size <= maxScratch {
		scratchPool.Put(sc)
	}
}

// canceled returns nil while ctx is live, and the translation's error
// once it is done.
func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("ltl2ba: translation canceled: %w", err)
	}
	return nil
}

func collectConjuncts(f *ltl.Expr, out []*ltl.Expr) []*ltl.Expr {
	if f.Op == ltl.OpAnd {
		return collectConjuncts(f.Right, collectConjuncts(f.Left, out))
	}
	return append(out, f)
}

// conjunct builds the reduced TGBA of one conjunct.
func (sc *scratch) conjunct(ctx context.Context, voc *vocab.Vocabulary, f *ltl.Expr) (*gba, error) {
	t := &sc.t
	t.ctx, t.voc, t.marks, t.ands, t.err = ctx, voc, 0, 0, nil
	t.forms, t.mark, t.terms = t.forms[:0], t.mark[:0], t.terms[:0]
	clear(t.ids)
	root, err := t.intern(ltl.Simplify(ltl.NNF(f)))
	if err != nil {
		return nil, err
	}
	g, err := t.explore(root, sc.gba())
	if err != nil {
		return nil, err
	}
	return sc.reduce(ctx, sc.trim(g))
}

// shrink reduces the degeneralized automaton a by bidirectional
// bisimulation and merges labels, on a's slabs, then builds the
// automaton citing events, and releases a; only the automaton it
// returns is allocated. It needs no trim: every state of the fold's
// result reaches a fair component, unless the language is empty.
func (sc *scratch) shrink(ctx context.Context, a *gba, events vocab.Set) (*buchi.BA, error) {
	defer sc.put(a)
	if len(a.Row(a.Init)) == 0 {
		a.Reset()
		a.Next()
		return a.BA(events), nil
	}
	quotiented, err := sc.reducer.Reduce(ctx, &a.Flat)
	if err != nil {
		return nil, canceled(ctx)
	}
	if quotiented {
		// Rows as AddMinimal built them hold no two labels to merge.
		a.Rewrite(func(row []buchi.Edge) []buchi.Edge {
			row, _ = sc.merge.Merge(row)
			return row
		})
	}
	return a.BA(events), nil
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

// maxArena bounds a conjunct's id-set arena and terms slab (4 words a
// term), in words (64 MiB): n subformulas over s states take about
// s·n/64 words, which 100,000 nested X's would take to 1.25 GB.
const maxArena = 1 << 23

// translator holds one conjunct's formula ids, their covers (cut from
// the terms slab), and the arena of id sets its terms and states
// share. Sets are w words; the set at offset 0 is empty.
type translator struct {
	ctx    context.Context
	voc    *vocab.Vocabulary
	forms  []formula
	ids    map[formula]int32
	mark   []uint64 // the acceptance mark a U/F id owns, else 0
	marks  int
	covers [][]term // nil until computed (or for false, cheap to redo)
	w      int
	arena  []uint64
	terms  []term
	ands   int   // calls of and, for the context checks
	err    error // the context's error, once a check found it done

	// explore's states: their id-set offsets, chained by set hash.
	states []int32
	heads  map[uint64]int32 // set hash → newest state + 1
	chain  []int32          // state → the previous state + 1 of its hash
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
		return t.cut(term{lab: lab, post: post})
	case ltl.OpFalse:
		return nil
	}
	return t.cut(term{lab: lab, post: post, next: t.singleton(id)})
}

// cut returns a one-term cover cut from the terms slab.
func (t *translator) cut(x term) []term {
	lo := len(t.terms)
	t.terms = append(t.terms, x)
	return t.terms[lo : lo+1 : lo+1]
}

// cover returns id's one-step cover, computing it on first use.
func (t *translator) cover(id int32) []term {
	if c := t.covers[id]; c != nil {
		return c
	}
	f := t.forms[id]
	var c []term
	switch f.op {
	case ltl.OpTrue:
		c = t.cut(term{})
	case ltl.OpAtom, ltl.OpNot:
		c = t.cut(term{lab: f.lit})
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
	t.covers[id] = c
	return c
}

// and returns the pairwise conjunction of two covers, cut from the
// terms slab. Every 32nd call checks the context, recording its error
// in t.err once it is done.
func (t *translator) and(a, b []term) []term {
	if t.ands++; t.ands%32 == 0 && t.err == nil {
		t.err = canceled(t.ctx)
	}
	if t.err != nil {
		return nil
	}
	lo := len(t.terms)
	for _, x := range a {
		for _, y := range b {
			if !x.lab.Conflicts(y.lab) {
				t.terms = append(t.terms, term{lab: x.lab.And(y.lab), post: x.post | y.post, next: t.union(x.next, y.next)})
			}
		}
	}
	return t.prune(lo)
}

// or returns the union of two covers, cut from the terms slab.
func (t *translator) or(a, b []term) []term {
	lo := len(t.terms)
	t.terms = append(append(t.terms, a...), b...)
	return t.prune(lo)
}

// prune drops, in place, every term of t.terms[lo:] another term there
// dominates: one whose label needs no more literals, whose next set is
// no larger and which postpones no more marks. Of equal terms the
// first stays. The slab ends after the kept terms, which it returns.
func (t *translator) prune(lo int) []term {
	ts := t.terms[lo:]
	out := ts[:0] // never longer than the terms visited so far
	for _, x := range ts {
		if slices.ContainsFunc(out, func(y term) bool { return t.dominates(y, x) }) {
			continue
		}
		out = append(slices.DeleteFunc(out, func(y term) bool { return t.dominates(x, y) }), x)
	}
	t.terms = t.terms[:lo+len(out)]
	return out[:len(out):len(out)]
}

func (t *translator) dominates(y, x term) bool {
	return y.lab.ContainedIn(x.lab) && y.post&^x.post == 0 && t.subset(y.next, x.next)
}

// explore builds, into g, the TGBA of the formula root: states are the
// id sets reachable from {root}, and a state's transitions are the
// conjunction of its members' covers, each carrying the marks it does
// not postpone.
func (t *translator) explore(root int32, g *gba) (*gba, error) {
	n := len(t.forms)
	t.w = (n + 63) / 64
	t.covers = slices.Grow(t.covers[:0], n)[:n]
	clear(t.covers)
	t.arena = append(t.arena[:0], make([]uint64, t.w)...) // the empty set
	t.states, t.chain = t.states[:0], t.chain[:0]
	clear(t.heads)
	full := fullMask(t.marks)
	intern := func(off int32) buchi.StateID {
		h := uint64(t.w)
		for _, w := range t.set(off) {
			h = bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 29)
		}
		for s := t.heads[h]; s > 0; s = t.chain[s-1] {
			if slices.Equal(t.set(t.states[s-1]), t.set(off)) {
				return buchi.StateID(s - 1)
			}
		}
		t.states, t.chain = append(t.states, off), append(t.chain, t.heads[h])
		t.heads[h] = int32(len(t.states))
		return buchi.StateID(len(t.states) - 1)
	}
	intern(t.singleton(root))
	for s := 0; s < len(t.states); s++ {
		if s%32 == 31 {
			if len(t.arena)+4*len(t.terms) > maxArena {
				return nil, fmt.Errorf("%w (state sets and terms pass %d MiB)", ErrTooLarge, maxArena>>17)
			}
			if err := canceled(t.ctx); err != nil {
				return nil, err
			}
		}
		terms := t.cut(term{})
		for w, word := range t.set(t.states[s]) {
			for ; word != 0; word &= word - 1 {
				terms = t.and(terms, t.cover(int32(w*64+bits.TrailingZeros64(word))))
			}
		}
		if t.err != nil {
			return nil, t.err
		}
		for _, x := range terms {
			g.add(buchi.Edge{Label: x.lab, To: intern(x.next)}, full&^x.post)
		}
		g.Next()
	}
	g.k = t.marks
	return g, nil
}

func fullMask(k int) uint64 { return ^uint64(0) >> (64 - k) }

// gba is a transition-based generalized Büchi automaton: a run is
// accepting iff it takes, for each of the k acceptance marks,
// infinitely many transitions carrying it. acc[i] holds the marks of
// Edges[i] as bits; Final is unused until degeneralize, whose result
// is a plain, state-based automaton. Automata live in a scratch, which
// reuses their slabs once they are released.
type gba struct {
	buchi.Flat
	acc []uint64
	k   int
}

// add appends a transition to the state being built.
func (g *gba) add(e buchi.Edge, mk uint64) {
	g.Edges, g.acc = append(g.Edges, e), append(g.acc, mk)
}

// pairs numbers the pairs (q, i), i < m, of a product-like
// construction densely, in the order they are first seen: queue[id]
// is q*m+i, and ids[q*m+i] is id+1, or 0 before (q, i) is seen.
type pairs struct {
	m     int
	ids   []int32
	queue []int
}

// reset readies p for pairs (q, i), q < n, i < m.
func (p *pairs) reset(n, m int) {
	p.m, p.ids, p.queue = m, slices.Grow(p.ids[:0], n*m)[:n*m], p.queue[:0]
	clear(p.ids)
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
// projections are. It releases g and h.
func (sc *scratch) product(ctx context.Context, g, h *gba) (*gba, error) {
	if g.k+h.k > 64 {
		return nil, fmt.Errorf("%w (more than 64 acceptance marks in one product)", ErrTooLarge)
	}
	ps := &sc.pairs
	ps.reset(g.NumStates(), h.NumStates())
	ps.id(int(g.Init), int(h.Init))
	out := sc.gba()
	for from := 0; from < len(ps.queue); from++ {
		if from%32 == 31 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		s, t := ps.queue[from]/ps.m, ps.queue[from]%ps.m
		for i := g.Off[s]; i < g.Off[s+1]; i++ {
			ex := g.Edges[i]
			for j := h.Off[t]; j < h.Off[t+1]; j++ {
				if ey := h.Edges[j]; !ex.Label.Conflicts(ey.Label) {
					e := buchi.Edge{Label: ex.Label.And(ey.Label), To: ps.id(int(ex.To), int(ey.To))}
					out.add(e, g.acc[i]|h.acc[j]<<g.k)
				}
			}
		}
		out.Next()
	}
	out.k = g.k + h.k
	sc.put(g)
	sc.put(h)
	return out, nil
}

// trim restricts g, whose states explore or product reached from its
// initial state, to those that can reach a fair component (one whose
// internal transitions carry every mark). It then normalizes the
// marks, changing no run's acceptance: a transition between
// components, taken at most once, carries every mark; one inside an
// unfair component carries none; a mark set everywhere, or exactly
// where an earlier mark is, is dropped, sparing a counter level. It
// releases g.
func (sc *scratch) trim(g *gba) *gba {
	n := g.NumStates()
	full := fullMask(g.k)
	comp, count := sc.scc.Flat(&g.Flat)
	sc.comps = slices.Grow(sc.comps[:0], count)[:count]
	cs := sc.comps
	clear(cs)
	for s := range n {
		for i := g.Off[s]; i < g.Off[s+1]; i++ {
			if c := comp[s]; c == comp[g.Edges[i].To] {
				cs[c].cyclic = true
				cs[c].seen |= g.acc[i]
			}
		}
	}
	fair := func(c int) bool { return cs[c].cyclic && cs[c].seen == full }
	// SCCs numbers components successors first, so one pass over the
	// states in component order settles which reach a fair component.
	for _, s := range sc.scc.Order() {
		c := comp[s]
		cs[c].live = cs[c].live || fair(c)
		for _, e := range g.Row(s) {
			cs[c].live = cs[c].live || cs[comp[e.To]].live
		}
	}
	out := sc.gba()
	if !cs[comp[g.Init]].live {
		out.Next() // empty language: one state, no transitions
		sc.put(g)
		return out
	}
	sc.remap = slices.Grow(sc.remap[:0], n)[:n]
	m := buchi.StateID(0)
	for s, c := range comp[:n] {
		if sc.remap[s] = m; cs[c].live {
			m++
		}
	}
	everywhere := full
	for s := range n {
		if !cs[comp[s]].live {
			continue
		}
		for i := g.Off[s]; i < g.Off[s+1]; i++ {
			e := g.Edges[i]
			if !cs[comp[e.To]].live {
				continue
			}
			mk := full
			if c := comp[s]; c == comp[e.To] {
				mk = 0
				if fair(c) {
					mk = g.acc[i]
				}
			}
			out.add(buchi.Edge{Label: e.Label, To: sc.remap[e.To]}, mk)
			everywhere &= mk
		}
		out.Next()
	}
	same := func(i, j int) bool { // marks i and j sit on the same transitions
		return !slices.ContainsFunc(out.acc, func(mk uint64) bool { return mk>>i&1 != mk>>j&1 })
	}
	var keptBuf [64]int
	kept := keptBuf[:0]
	for j := range g.k {
		if everywhere>>j&1 == 0 && !slices.ContainsFunc(kept, func(i int) bool { return same(i, j) }) {
			kept = append(kept, j)
		}
	}
	for i, mk := range out.acc {
		var packed uint64
		for to, from := range kept {
			packed |= mk >> from & 1 << to
		}
		out.acc[i] = packed
	}
	out.Init, out.k = sc.remap[g.Init], len(kept)
	sc.put(g)
	return out
}

// reduce quotients g by forward bisimulation over labeled, marked
// transitions: equivalent states mimic each other's transitions, with
// equal labels and marks, into equivalent states, so the quotient
// accepts the same language. It releases g when it returns another
// automaton.
func (sc *scratch) reduce(ctx context.Context, g *gba) (*gba, error) {
	n, m := g.NumStates(), len(g.Edges)
	if n <= 1 {
		return g, nil
	}
	sc.key, sc.to, sc.class = slices.Grow(sc.key[:0], m)[:m], slices.Grow(sc.to[:0], m)[:m], slices.Grow(sc.class[:0], n)[:n]
	sc.keys.Reset()
	for i, e := range g.Edges {
		sc.key[i], sc.to[i] = sc.keys.ID([3]uint64{uint64(e.Label.Pos), uint64(e.Label.Neg), g.acc[i]}), int32(e.To)
	}
	clear(sc.class)
	count, err := bisim.RefineEdges(ctx, g.Off, sc.key, sc.to, sc.class)
	if err != nil {
		return nil, canceled(ctx)
	}
	if count == n {
		return g, nil
	}
	// Classes are numbered by first occurrence in state order, so each
	// class's first member comes up in class order; its transitions
	// speak for the class.
	out := sc.gba()
	for s := range n {
		if int(sc.class[s]) < out.NumStates() {
			continue
		}
		lo := len(out.Edges)
	edges:
		for i := g.Off[s]; i < g.Off[s+1]; i++ {
			e := g.Edges[i]
			e.To = buchi.StateID(sc.class[e.To])
			for j := lo; j < len(out.Edges); j++ {
				if out.Edges[j] == e && out.acc[j] == g.acc[i] {
					continue edges
				}
			}
			out.add(e, g.acc[i])
		}
		out.Next()
	}
	out.Init, out.k = buchi.StateID(sc.class[g.Init]), g.k
	sc.put(g)
	return out, nil
}

// degeneralize applies the counter construction: state (q, i) has
// seen marks 0..i-1 since the last round; a transition inside a
// component advances the counter past every next mark it carries, and
// the states at level k, which complete a round, are accepting and
// continue as level 0. Where a run enters a component does not matter
// to its acceptance, so an entering transition takes the level the
// target's own component transitions give it: k when all carry every
// mark, else 0. It releases g.
func (sc *scratch) degeneralize(ctx context.Context, g *gba) (*gba, error) {
	n, k := g.NumStates(), g.k
	comp, _ := sc.scc.Flat(&g.Flat)
	sc.entry = slices.Grow(sc.entry[:0], n)[:n]
	entry := sc.entry
	for q := range entry {
		entry[q] = int32(k)
	}
	for s := range n {
		for i := g.Off[s]; i < g.Off[s+1]; i++ {
			if to := g.Edges[i].To; comp[s] == comp[to] && g.acc[i] != fullMask(k) {
				entry[to] = 0
			}
		}
	}
	ps := &sc.pairs
	ps.reset(n, k+1)
	ps.id(int(g.Init), int(entry[g.Init]))
	out := sc.gba()
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
		for idx := g.Off[q]; idx < g.Off[q+1]; idx++ {
			e := g.Edges[idx]
			j := i
			for j < k && g.acc[idx]>>j&1 != 0 {
				j++
			}
			if comp[q] != comp[e.To] {
				j = int(entry[e.To])
			}
			out.AddMinimal(buchi.Edge{Label: e.Label, To: ps.id(int(e.To), j)})
		}
		out.Next()
	}
	sc.put(g)
	return out, nil
}
