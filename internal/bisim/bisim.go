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
	r := loadRefiner(a, false)
	defer refinerPool.Put(r)
	return r.refine(r.seed(a, false), keep)
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
	r := loadRefiner(a, false)
	defer refinerPool.Put(r)
	return r.refine(start.Class, keep)
}

// Quotient materializes the quotient automaton of a under the
// partition, with labels projected onto keep (Definition 10). The
// result's Events field preserves a.Events: the permission semantics
// restricts queries to the events the *contract* cites, regardless of
// which events survive the projection.
func Quotient(a *buchi.BA, p Partition, keep vocab.Set) *buchi.BA {
	a.EnsureEdges()
	q := buchi.New(p.Count)
	q.Init = buchi.StateID(p.Class[a.Init])
	for s, out := range a.Out {
		c := buchi.StateID(p.Class[s])
		if a.Final[s] {
			q.SetFinal(c)
		}
		for _, e := range out {
			q.AddEdge(c, e.Label.Project(keep), buchi.StateID(p.Class[e.To]))
		}
	}
	q.Normalize()
	q.Events = a.Events
	return q
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
func CoarsestBackward(a *buchi.BA) Partition {
	p, _ := coarsest(nil, a, true)
	return p
}

// coarsest is Coarsest, or CoarsestBackward when backward is set,
// stopping with ctx's error once a non-nil ctx is done.
func coarsest(ctx context.Context, a *buchi.BA, backward bool) (Partition, error) {
	r := loadRefiner(a, backward)
	defer refinerPool.Put(r)
	r.project(^vocab.Set(0))
	return r.partition(ctx, r.seed(a, backward))
}

// ReduceBidirectional alternates forward and backward bisimulation
// quotients until neither shrinks the automaton. Forward bisimulation
// merges states with identical futures, backward ones with identical
// pasts; clause-product automata typically carry both kinds of
// redundancy. It checks ctx before every refinement round and stops
// with its error once it is done: a long chain of states takes one
// round per state.
func ReduceBidirectional(ctx context.Context, a *buchi.BA) (*buchi.BA, error) {
	for {
		before := a.NumStates()
		for _, backward := range []bool{false, true} {
			p, err := coarsest(ctx, a, backward)
			if err != nil {
				return nil, err
			}
			if p.Count < a.NumStates() {
				a = Quotient(a, p, ^vocab.Set(0))
			}
		}
		if a.NumStates() == before {
			return a, nil
		}
	}
}
