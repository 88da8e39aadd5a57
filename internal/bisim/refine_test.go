package bisim_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/vocab"
)

// randomBA draws an automaton of up to 14 states over four events
// from a small label pool, so labels repeat, with self-loops, exact
// parallel duplicates, and up to two states no edge enters. It may
// have no states at all.
func randomBA(rng *rand.Rand) *buchi.BA {
	n := rng.Intn(15)
	a := buchi.NewBuilder(n)
	if n == 0 {
		return a.BA()
	}
	pool := make([]buchi.Label, 1+rng.Intn(5))
	for i := range pool {
		pool[i] = buchi.Label{Pos: vocab.Set(rng.Intn(16)), Neg: vocab.Set(rng.Intn(16))}
	}
	a.Init = buchi.StateID(rng.Intn(n))
	targets := max(1, n-rng.Intn(3))
	for s := range n {
		from := buchi.StateID(s)
		a.Final[s] = rng.Intn(3) == 0
		for d := rng.Intn(7); d > 0; d-- {
			l, to := pool[rng.Intn(len(pool))], buchi.StateID(rng.Intn(targets))
			if rng.Intn(5) == 0 {
				to = from
			}
			a.AddEdge(from, l, to)
			if rng.Intn(6) == 0 {
				a.AddEdge(from, l, to)
			}
		}
	}
	return a.BA()
}

// randomStarts returns start partitions for a: finality in canonical
// numbering, finality refined at random under scattered class values,
// finality under values too far apart for a dense remap, and the
// one-class partition (which does not separate final states).
func randomStarts(rng *rand.Rand, a *buchi.BA) []bisim.Partition {
	n := a.NumStates()
	canon, scattered, wide, one := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	values := []int32{9, 4, 17, 2}
	for s := range n {
		f := int32(0)
		if a.Final[s] {
			f = 1
		}
		canon[s] = f
		scattered[s] = values[2*f+int32(rng.Intn(2))]
		wide[s] = []int32{math.MinInt32, math.MaxInt32}[f]
	}
	return []bisim.Partition{{Class: canon, Count: 2}, {Class: scattered, Count: 4}, {Class: wide, Count: 2}, {Class: one, Count: 1}}
}

// randomKeeps returns projections to refine under: nothing, every
// event, and two random subsets of the four events.
func randomKeeps(rng *rand.Rand) []vocab.Set {
	return []vocab.Set{0, ^vocab.Set(0), vocab.Set(rng.Intn(16)), vocab.Set(rng.Intn(16))}
}

// checkRefine compares refine's partition of a with the reference's,
// class for class.
func checkRefine(t *testing.T, what string, refine func(*buchi.BA, bisim.Partition, vocab.Set) bisim.Partition,
	a *buchi.BA, start bisim.Partition, keep vocab.Set) {
	t.Helper()
	got, want := refine(a, start, keep), bisim.ReferenceRefineProjected(a, start, keep)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d states, start %v, keep %v:\n got %v\nwant %v", what, a.NumStates(), start.Class, keep, got, want)
	}
	if got.Key() != bisim.ReferenceKey(got) {
		t.Fatalf("%s: Key %q, reference key %q", what, got.Key(), bisim.ReferenceKey(got))
	}
}

// checkRandom runs checkRefine over random automata, starts and
// projections, and compares the forward and backward coarsest
// partitions with the reference's.
func checkRandom(t *testing.T, refine func(*buchi.BA, bisim.Partition, vocab.Set) bisim.Partition) {
	rng := rand.New(rand.NewSource(61))
	for i := range 500 {
		a := randomBA(rng)
		for _, start := range randomStarts(rng, a) {
			for _, keep := range randomKeeps(rng) {
				checkRefine(t, "random automaton", refine, a, start, keep)
			}
		}
		if got, want := bisim.CoarsestBackward(a), bisim.ReferenceCoarsestBackward(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("automaton %d: backward partition %v, reference %v", i, got, want)
		}
	}
}

// checkCorpus runs checkRefine on every subset within budget of the
// datagen Simple corpus: refined from scratch, and seeded with the
// precomputed partition of the subset less its largest event, as
// Precompute seeds it.
func checkCorpus(t *testing.T, refine func(*buchi.BA, bisim.Partition, vocab.Set) bisim.Partition) {
	for _, ps := range exportCorpus(t)[:4] {
		a := ps.Auto
		finals := randomStarts(rand.New(rand.NewSource(0)), a)[0]
		for _, set := range ps.Subsets() {
			checkRefine(t, "corpus contract", refine, a, finals, set)
			if ids := set.IDs(); len(ids) > 0 {
				seed := ps.Parts()[set.Without(ids[len(ids)-1])]
				checkRefine(t, "corpus contract, seeded", refine, a, *seed, set)
			}
		}
	}
}

// TestRefinerMatchesReference: the refiner's partitions equal the
// signature-string reference's exactly — class numbering included —
// on random automata with parallel edges, repeated labels, self-loops,
// unreachable states, no states at all and non-canonical starts, and
// on every precomputed subset of several datagen contracts.
func TestRefinerMatchesReference(t *testing.T) {
	checkRandom(t, bisim.RefineProjected)
	checkCorpus(t, bisim.RefineProjected)
	empty := buchi.NewBuilder(0).BA()
	if got := bisim.Coarsest(empty); !reflect.DeepEqual(got, bisim.ReferenceCoarsestProjected(empty, ^vocab.Set(0))) {
		t.Fatalf("0-state automaton: got %v", got)
	}
}

// TestRefinerOneBucket: with every signature hashed into one bucket,
// the exact set compare alone decides every class, and the partitions
// are still the reference's.
func TestRefinerOneBucket(t *testing.T) {
	checkRandom(t, bisim.RefineOneBucket)
	checkCorpus(t, bisim.RefineOneBucket)
}

// TestPrecomputeMatchesReference: Precompute's flat export — the
// partition tables that feed the v4 snapshot and register-record
// bytes — gob-encodes to the same bytes as the reference
// precomputation's.
func TestPrecomputeMatchesReference(t *testing.T) {
	for i, ps := range exportCorpus(t) {
		ref := bisim.ReferencePrecompute(ps.Auto, ps.MaxSubset)
		if ps.PrecomputedSubsets != ref.PrecomputedSubsets || ps.DistinctPartitions != ref.DistinctPartitions {
			t.Fatalf("contract %d: %d subsets, %d distinct; reference %d, %d", i,
				ps.PrecomputedSubsets, ps.DistinctPartitions, ref.PrecomputedSubsets, ref.DistinctPartitions)
		}
		if got, want := gobBytes(t, ps.ExportFlat()), gobBytes(t, ref.ExportFlat()); !bytes.Equal(got, want) {
			t.Fatalf("contract %d: ExportFlat encodes to %d bytes, reference to %d, and they differ", i, len(got), len(want))
		}
	}
}

// TestPartitionsFromCSRMatchRows: for contracts of every datagen
// class, Precompute over the automaton's CSR arrays exports the flat
// form the reference precomputation gives over the same transitions as
// per-state edge rows — shuffled, with some edges repeated, and labels
// compared by value rather than by their interned ids.
func TestPartitionsFromCSRMatchRows(t *testing.T) {
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 37)
	rng := rand.New(rand.NewSource(37))
	for _, class := range datagen.ContractClasses() {
		checked := 0
		for checked < 3 {
			a, err := ltl2ba.TranslateBounded(context.Background(), voc, gen.Specification(class.Properties), 300)
			if err != nil || a.IsEmpty() {
				continue
			}
			rows := make([][]buchi.Edge, a.NumStates())
			for s := range rows {
				for e := range a.Edges(buchi.StateID(s)) {
					rows[s] = append(rows[s], e)
					if rng.Intn(4) == 0 {
						rows[s] = append(rows[s], e)
					}
				}
				rng.Shuffle(len(rows[s]), func(i, j int) { rows[s][i], rows[s][j] = rows[s][j], rows[s][i] })
			}
			got, want := bisim.Precompute(a, 3), bisim.ReferencePrecomputeRows(a, rows, 3)
			if !reflect.DeepEqual(got.ExportFlat(), want.ExportFlat()) || got.LabelEvents() != want.LabelEvents() {
				t.Fatalf("%s contract %d: partitions from the CSR arrays differ from the rows'", class.Name, checked)
			}
			checked++
		}
	}
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRefineEdgesMatchesReference: RefineEdges over edges keyed by
// their labels partitions random automata as the reference refines
// them with unprojected labels, from every start, and stops with the
// context's error once the context is done.
func TestRefineEdgesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for range 500 {
		a := randomBA(rng)
		n := a.NumStates()
		if n == 0 {
			continue
		}
		ids := map[buchi.Label]int32{}
		off := make([]int32, n+1)
		var key, to []int32
		for s := range n {
			for e := range a.Edges(buchi.StateID(s)) {
				if _, ok := ids[e.Label]; !ok {
					ids[e.Label] = int32(len(ids))
				}
				key, to = append(key, ids[e.Label]), append(to, int32(e.To))
			}
			off[s+1] = int32(len(key))
		}
		for _, start := range randomStarts(rng, a) {
			got := bisim.Partition{Class: slices.Clone(start.Class)}
			var err error
			if got.Count, err = bisim.RefineEdges(context.Background(), off, key, to, got.Class); err != nil {
				t.Fatal(err)
			}
			if want := bisim.ReferenceRefineProjected(a, start, ^vocab.Set(0)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d states, start %v:\n got %v\nwant %v", n, start.Class, got, want)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := bisim.RefineEdges(ctx, off, key, to, make([]int32, n)); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled refinement returned %v, want %v", err, context.Canceled)
		}
	}
}

// TestReduceBidirectionalMatchesReference: ReduceBidirectional yields
// the reference reduction's automaton, array for array, on a
// fixed set of datagen queries and on random automata. Translation
// has already reduced the queries, so each is first inflated into two
// interleaved copies for the reduction to undo.
func TestReduceBidirectionalMatchesReference(t *testing.T) {
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 31)
	var inputs []func() *buchi.BA
	for _, class := range datagen.QueryClasses() {
		for range 20 {
			q := ltl2ba.MustTranslate(voc, gen.Specification(class.Properties))
			inputs = append(inputs, func() *buchi.BA { return inflate(q) })
		}
	}
	rng := rand.New(rand.NewSource(67))
	for range 200 {
		a := randomBA(rng)
		inputs = append(inputs, func() *buchi.BA { return inflate(a) })
	}
	for i, input := range inputs {
		got, err := bisim.ReduceBidirectional(context.Background(), input())
		if err != nil {
			t.Fatal(err)
		}
		want := bisim.ReferenceReduceBidirectional(input())
		if !sameAutomaton(got, want) {
			t.Fatalf("input %d: reduction to %d states diverges from the reference's %d", i, got.NumStates(), want.NumStates())
		}
	}
}

// TestRefinerPoolConcurrent: goroutines sharing the refiner pool —
// Precompute, forward and backward partitions at once — each get the
// partitions a lone caller gets. Run under -race.
func TestRefinerPoolConcurrent(t *testing.T) {
	corpus := exportCorpus(t)[:4]
	rng := rand.New(rand.NewSource(71))
	autos := make([]*buchi.BA, 50)
	for i := range autos {
		autos[i] = randomBA(rng)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := corpus[g]
			if got := bisim.Precompute(ps.Auto, ps.MaxSubset); !reflect.DeepEqual(got.ExportFlat(), ps.ExportFlat()) {
				t.Errorf("goroutine %d: concurrent Precompute diverges", g)
			}
			for _, a := range autos {
				if !reflect.DeepEqual(bisim.Coarsest(a), bisim.ReferenceCoarsestProjected(a, ^vocab.Set(0))) ||
					!reflect.DeepEqual(bisim.CoarsestBackward(a), bisim.ReferenceCoarsestBackward(a)) {
					t.Errorf("goroutine %d: concurrent partition diverges", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// inflate returns two copies of a whose edges cross between the
// copies, so every state has a bisimilar twin.
func inflate(a *buchi.BA) *buchi.BA {
	n := a.NumStates()
	b := buchi.NewBuilder(2 * n)
	b.Init = a.Init
	for s := range n {
		for k := range 2 {
			from := buchi.StateID(s + k*n)
			b.Final[from] = a.Final[s]
			j := 0
			for e := range a.Edges(buchi.StateID(s)) {
				b.AddEdge(from, e.Label, e.To+buchi.StateID((s+j+k)%2*n))
				j++
			}
		}
	}
	b.Events = a.Events
	return b.BA()
}

// sameAutomaton reports whether a and b hold equal arrays.
func sameAutomaton(a, b *buchi.BA) bool {
	return a.Init == b.Init && a.Events == b.Events && a.MaxDeg == b.MaxDeg &&
		slices.Equal(a.Final, b.Final) && slices.Equal(a.EdgeOff, b.EdgeOff) && slices.Equal(a.EdgeTo, b.EdgeTo) &&
		slices.Equal(a.EdgeLabel, b.EdgeLabel) && slices.Equal(a.Labels, b.Labels)
}
