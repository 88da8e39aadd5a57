// Package bisim implements bisimulation-based state reduction of Büchi
// automata and the projection machinery of the paper's second
// optimization (§5, §6.3).
//
// Two states are bisimilar (Definition 9) when they agree on finality
// and can mimic each other's labeled transitions into bisimilar
// states. Collapsing bisimilar states preserves the automaton's paths
// label-for-label (Theorem 8) and therefore preserves the existence of
// simultaneous lasso paths (Theorem 9). Projecting labels onto the
// event subset a query cites makes previously distinct transitions
// identical, which is what gives the quotient its leverage: the fewer
// events a query mentions, the smaller the automaton the permission
// checker has to explore.
package bisim

import (
	"context"
	"slices"
	"strconv"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// Partition assigns each state of an automaton a class index. Classes
// are dense, 0-based, and normalized so that classes are numbered by
// first occurrence in state order, making Partition values comparable
// with Key.
type Partition struct {
	Class []int32
	Count int
}

// Key returns a canonical string for the partition, used to detect
// that different event subsets induce the same simplification (§5.2
// observes only ~5% of subsets are distinct).
func (p Partition) Key() string { return string(p.appendKey(nil)) }

// appendKey appends Key's bytes to b, so deduplication can look a
// partition up without allocating its key.
func (p Partition) appendKey(b []byte) []byte {
	for i, c := range p.Class {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return b
}

// Coarsest computes the coarsest bisimulation partition of a with
// labels considered as-is. The initial partition separates final from
// non-final states (as in Hopcroft's DFA minimization, adapted per the
// paper §5.3).
func Coarsest(a *buchi.BA) Partition {
	return CoarsestProjected(a, ^vocab.Set(0))
}

// CoarsestProjected computes the coarsest bisimulation partition of a
// when every label is first projected onto the event set keep. Passing
// the full event set yields plain bisimulation.
func CoarsestProjected(a *buchi.BA, keep vocab.Set) Partition {
	r := loadRefiner(a)
	defer refinerPool.Put(r)
	return r.refine(r.seed(a), keep)
}

// RefineProjected refines a starting partition until it is the
// coarsest bisimulation partition (w.r.t. keep-projected labels) that
// refines the start. Per Theorem 3, the partition for a superset of
// literals refines the partition for a subset, so callers walking the
// subset lattice seed each refinement with an already-computed coarser
// partition and skip the early rounds.
//
// The start partition must itself separate final from non-final
// states; the partitions produced by this package always do. Its
// classes may be numbered in any order.
func RefineProjected(a *buchi.BA, start Partition, keep vocab.Set) Partition {
	r := loadRefiner(a)
	defer refinerPool.Put(r)
	return r.refine(start.Class, keep)
}

// Quotient materializes the quotient automaton of a under the
// partition, with labels projected onto keep (Definition 10). The
// result's Events field preserves a.Events: the permission semantics
// restricts queries to the events the *contract* cites, regardless of
// which events survive the projection.
func Quotient(a *buchi.BA, p Partition, keep vocab.Set) *buchi.BA {
	q := buchi.NewBuilder(p.Count)
	q.Init = buchi.StateID(p.Class[a.Init])
	q.Events = a.Events
	for s := range a.NumStates() {
		c := buchi.StateID(p.Class[s])
		if a.Final[s] {
			q.SetFinal(c)
		}
		for e := range a.Edges(buchi.StateID(s)) {
			q.AddEdge(c, e.Label.Project(keep), buchi.StateID(p.Class[e.To]))
		}
	}
	return q.BA()
}

// Reduce is the convenience used by the LTL→BA pipeline: quotient a by
// plain bisimulation with unprojected labels, preserving the accepted
// language exactly.
func Reduce(a *buchi.BA) *buchi.BA {
	p := Coarsest(a)
	if p.Count == a.NumStates() {
		return a
	}
	return Quotient(a, p, ^vocab.Set(0))
}

// CoarsestBackward computes the coarsest *backward* bisimulation
// partition: states are equivalent when they agree on finality and
// initiality and can mimic each other's labeled *incoming* edges from
// equivalent sources. Quotienting by it preserves the language and
// simultaneous-lasso existence: a quotient path backward-realizes to
// an original path with identical labels (realizations of all finite
// prefixes form an infinite, finitely-branching tree, so infinite runs
// lift too), and classes are finality-uniform, so acceptance
// transfers.
// It is the backward partition ReduceBidirectional's Reducer computes.
func CoarsestBackward(a *buchi.BA) Partition {
	var r Reducer
	f := flatten(a)
	r.label(&f)
	count, _ := r.coarsest(nil, &f, true)
	if count == 0 {
		return Partition{}
	}
	return Partition{Class: slices.Clone(r.class), Count: count}
}

// ReduceBidirectional alternates forward and backward bisimulation
// quotients until neither shrinks the automaton. Forward bisimulation
// merges states with identical futures, backward ones with identical
// pasts; clause-product automata typically carry both kinds of
// redundancy. It checks ctx before every refinement round and stops
// with its error once it is done: a long chain of states takes one
// round per state. It returns a itself when no quotient shrinks it.
func ReduceBidirectional(ctx context.Context, a *buchi.BA) (*buchi.BA, error) {
	var r Reducer
	f := flatten(a)
	shrunk, err := r.Reduce(ctx, &f)
	if err != nil {
		return nil, err
	}
	if !shrunk {
		return a, nil
	}
	return f.BA(a.Events), nil
}

// flatten copies a's rows into a Flat for the Reducer to rewrite.
func flatten(a *buchi.BA) buchi.Flat {
	f := buchi.Flat{Init: a.Init, Off: append([]int32(nil), a.EdgeOff...), Final: append([]bool(nil), a.Final...)}
	for s := range a.NumStates() {
		f.Edges = slices.AppendSeq(f.Edges, a.Edges(buchi.StateID(s)))
	}
	return f
}

// Reducer is ReduceBidirectional on a flat automaton, reducing it in
// place. Its working memory, the spare automaton each quotient is
// built in included, is kept between calls, so a reused Reducer
// allocates nothing once it has grown. The zero value is ready.
type Reducer struct {
	ids                            buchi.KeyTable // label → key
	lab, off, key, to, class, fill []int32
	spare                          buchi.Flat
}

// Reduce reduces a as ReduceBidirectional does, quotienting with
// normalized rows as Quotient does, and reports whether any quotient
// shrank it. It stops with ctx's error once ctx is done.
func (r *Reducer) Reduce(ctx context.Context, a *buchi.Flat) (bool, error) {
	shrunk := false
	r.label(a)
	for {
		before := a.NumStates()
		for _, backward := range [2]bool{false, true} {
			count, err := r.coarsest(ctx, a, backward)
			if err != nil {
				return false, err
			}
			if count < a.NumStates() {
				r.quotient(a, count)
				r.label(a)
				shrunk = true
			}
		}
		if a.NumStates() == before {
			return shrunk, nil
		}
	}
}

// Size returns the bytes r holds, for pools that drop large scratch.
func (r *Reducer) Size() int {
	return 4*(cap(r.lab)+cap(r.off)+cap(r.key)+cap(r.to)+cap(r.class)+cap(r.fill)+cap(r.spare.Off)) +
		r.ids.Bytes() + 24*cap(r.spare.Edges) + cap(r.spare.Final)
}

// label numbers a's distinct labels densely into r.lab, one per edge.
func (r *Reducer) label(a *buchi.Flat) {
	r.ids.Reset()
	r.lab = resize(r.lab, len(a.Edges))
	for i, e := range a.Edges {
		r.lab[i] = r.ids.ID([3]uint64{uint64(e.Label.Pos), uint64(e.Label.Neg)})
	}
}

// coarsest refines r.class into the coarsest forward or backward
// bisimulation partition of a, labeled by r.lab, as Coarsest and
// CoarsestBackward compute it, and returns its class count.
func (r *Reducer) coarsest(ctx context.Context, a *buchi.Flat, backward bool) (int, error) {
	n, m := a.NumStates(), len(a.Edges)
	off, key, to := a.Off, r.lab, r.to[:0]
	r.class = resize(r.class, n)
	for s := range n {
		r.class[s] = 0
		if a.Final[s] {
			r.class[s] = 1
		}
	}
	if !backward {
		for _, e := range a.Edges {
			to = append(to, int32(e.To))
		}
		r.to = to
		return RefineEdges(ctx, off, key, to, r.class)
	}
	r.off, r.key, r.to, r.fill = resize(r.off, n+1), resize(r.key, m), resize(r.to, m), resize(r.fill, n)
	off, key, to = r.off, r.key, r.to
	clear(off)
	for _, e := range a.Edges {
		off[e.To+1]++
	}
	for s := range n {
		off[s+1] += off[s]
	}
	copy(r.fill, off[:n])
	for s := range n {
		for i := a.Off[s]; i < a.Off[s+1]; i++ {
			e := a.Edges[i]
			j := r.fill[e.To]
			r.fill[e.To]++
			key[j], to[j] = r.lab[i], int32(s)
		}
	}
	if int(a.Init) < n {
		r.class[a.Init] |= 2
	}
	return RefineEdges(ctx, off, key, to, r.class)
}

// quotient replaces a by its quotient under the partition in r.class,
// of count classes, built in r.spare with normalized rows.
func (r *Reducer) quotient(a *buchi.Flat, count int) {
	q := &r.spare
	q.Init = buchi.StateID(r.class[a.Init])
	q.Off, q.Final = resize(q.Off, count+1), resize(q.Final, count)
	clear(q.Off)
	clear(q.Final)
	for s := range a.NumStates() {
		c := r.class[s]
		q.Off[c+1] += a.Off[s+1] - a.Off[s]
		q.Final[c] = q.Final[c] || a.Final[s]
	}
	for c := range count {
		q.Off[c+1] += q.Off[c]
	}
	q.Edges = resize(q.Edges, len(a.Edges))
	r.fill = append(r.fill[:0], q.Off[:count]...)
	for s := range a.NumStates() {
		c := r.class[s]
		for _, e := range a.Row(buchi.StateID(s)) {
			q.Edges[r.fill[c]] = buchi.Edge{Label: e.Label, To: buchi.StateID(r.class[e.To])}
			r.fill[c]++
		}
	}
	q.Normalize()
	*a, *q = *q, *a
}
