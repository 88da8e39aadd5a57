package bisim

import (
	"context"
	"slices"
	"sync"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// refiner is the package's one partition-refinement engine. Every
// partition this package computes — plain, projected, backward, and the
// whole subset lattice of Precompute — comes out of refine.
//
// Loading an automaton copies its CSR arrays (per-state offsets plus
// flat label-id and target arrays), whose labels the automaton already
// interns. A refinement then projects each distinct label once, into
// a dense projected-id table, so a round touches no label at all: it
// signs every state by its class plus the set of distinct
// (projected id, target class) entries, deduplicated in a stamped
// open-addressing set and hashed commutatively — no sort, no string
// key. States whose signatures agree on hash, class and entry count are
// compared exactly, as sets, before they share a class, so a hash
// collision can never merge states. New classes are numbered by first
// occurrence in state order, which is the canonical numbering
// Partition values carry.
//
// A refiner is reused: Precompute loads the contract once and refines
// every subset with the same scratch, and the one-shot callers take a
// refiner from refinerPool, so the ~10-state automata of query
// translation allocate nothing but their result.
type refiner struct {
	n      int
	off    []int32 // edges of state s are [off[s], off[s+1])
	lab    []int32 // interned label id per edge
	to     []int32 // target state per edge
	labels []buchi.Label
	ids    map[buchi.Label]int32 // interns projections in refine

	proj []int32 // projected id per interned label, set per refinement
	pk   []int32 // projected id per edge, the rounds' view of proj

	class, next []int32 // the current and the next round's partition
	remap       []int32 // renumbering scratch for the start partition
	start       []int32 // the initial partition seed builds

	// set is the stamped open-addressing set deduplicating one state's
	// entries; a slot is occupied when its stamp is the current one.
	setKey   []uint64
	setStamp []uint32
	stamp    uint32

	// tab maps signatures to the classes of the round being built, by
	// open addressing on the signature hash; ent holds each class
	// representative's distinct entries, tab[i].off onward.
	tab []sigSlot
	ent []uint64

	// sigMask is ANDed into every signature hash. Tests set it to zero
	// so that every signature lands in one bucket and the exact compare
	// alone decides every class.
	sigMask uint64
}

// sigSlot is one class of the round being built: its representative's
// signature hash, its entries ent[off:off+cnt], and the representative
// state plus one (zero marks an empty slot).
type sigSlot struct {
	hash     uint64
	off, cnt int32
	rep1     int32
}

var refinerPool = sync.Pool{New: func() any {
	return &refiner{ids: make(map[buchi.Label]int32), sigMask: ^uint64(0)}
}}

// loadRefiner returns a pooled refiner loaded with a's edges. Return
// it to refinerPool when done.
func loadRefiner(a *buchi.BA) *refiner {
	r := refinerPool.Get().(*refiner)
	r.load(a)
	return r
}

// load copies a's CSR arrays into the refiner: the refiner's own
// slabs are rewritten by later loads, and a's may be a read-only
// snapshot mapping.
func (r *refiner) load(a *buchi.BA) {
	r.n = a.NumStates()
	r.off = append(r.off[:0], a.EdgeOff...)
	r.lab = append(r.lab[:0], a.EdgeLabel...)
	r.to = append(r.to[:0], a.EdgeTo...)
	r.labels = append(r.labels[:0], a.Labels...)
	r.size(a.MaxDeg)
}

// size fits the scratch tables to r.n states of at most maxDeg edges.
func (r *refiner) size(maxDeg int) {
	size := pow2AtLeast(2 * maxDeg)
	if len(r.setKey) < size {
		r.setKey, r.setStamp, r.stamp = make([]uint64, size), make([]uint32, size), 0
	}
	if size = pow2AtLeast(2 * r.n); len(r.tab) < size {
		r.tab = make([]sigSlot, size)
	}
	r.class, r.next = resize(r.class, r.n), resize(r.next, r.n)
}

// RefineEdges refines class (a class per state, in any numbering), in
// place, into the coarsest partition under which the states of one
// class have equal sets of (key, target class) pairs, numbered as
// Partition values are, and returns its class count. State s's edges
// are key[off[s]:off[s+1]] and to[off[s]:off[s+1]]; keys are dense
// from 0. It refines automata whose edges carry more than a label,
// such as the translator's generalized automata, whose edges also
// carry acceptance marks, and allocates nothing once the pooled
// refiner has grown. It stops with ctx's error once ctx is done,
// checking it once per round.
func RefineEdges(ctx context.Context, off, key, to []int32, class []int32) (int, error) {
	r := refinerPool.Get().(*refiner)
	defer refinerPool.Put(r)
	r.n = len(off) - 1
	r.off, r.lab, r.to = append(r.off[:0], off...), append(r.lab[:0], key...), append(r.to[:0], to...)
	maxDeg, keys := 0, 0
	for s := range r.n {
		maxDeg = max(maxDeg, int(off[s+1]-off[s]))
	}
	for _, k := range key {
		keys = max(keys, int(k)+1)
	}
	r.proj = resize(r.proj, keys)
	for i := range r.proj {
		r.proj[i] = int32(i)
	}
	r.size(maxDeg)
	count, err := r.rounds(ctx, class)
	if err == nil {
		copy(class, r.next[:r.n])
	}
	return count, err
}

// seed returns the initial partition of a's states: final apart from
// non-final. The slice is the refiner's scratch, valid until the next
// seed.
func (r *refiner) seed(a *buchi.BA) []int32 {
	r.start = resize(r.start, r.n)
	for s := range r.start {
		r.start[s] = 0
		if a.Final[s] {
			r.start[s] = 1
		}
	}
	return r.start
}

// refine returns the coarsest bisimulation partition, with every label
// projected onto keep, that refines start (a class per state, in any
// numbering). The result is freshly allocated and canonically
// numbered.
func (r *refiner) refine(start []int32, keep vocab.Set) Partition {
	r.project(keep)
	p, _ := r.partition(nil, start)
	return p
}

// project numbers the loaded labels' projections onto keep densely,
// into r.proj.
func (r *refiner) project(keep vocab.Set) {
	r.proj = resize(r.proj, len(r.labels))
	clear(r.ids)
	for i, l := range r.labels {
		l = l.Project(keep)
		id, ok := r.ids[l]
		if !ok {
			id = int32(len(r.ids))
			r.ids[l] = id
		}
		r.proj[i] = id
	}
}

// partition runs refinement rounds over the projected ids in r.proj
// from start until a round splits nothing. A non-nil ctx is checked
// before every round; once it is done, partition returns its error.
func (r *refiner) partition(ctx context.Context, start []int32) (Partition, error) {
	count, err := r.rounds(ctx, start)
	if err != nil || r.n == 0 {
		return Partition{}, err
	}
	return Partition{Class: slices.Clone(r.next[:r.n]), Count: count}, nil
}

// rounds is partition leaving the stable partition in r.next and
// returning its class count.
func (r *refiner) rounds(ctx context.Context, start []int32) (int, error) {
	if r.n == 0 {
		return 0, nil
	}
	var count int
	r.remap, count = firstOccurrence(r.class, start, r.remap)
	m := r.off[r.n]
	r.pk = resize(r.pk, int(m))
	for e, l := range r.lab[:m] {
		r.pk[e] = r.proj[l]
	}
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		next := r.round()
		if next == count {
			return count, nil // the round split nothing: r.next is stable
		}
		r.class, r.next = r.next, r.class
		count = next
	}
}

// round computes r.next from r.class — two states share a next class
// exactly when they share a class and their entry sets are equal — and
// returns the number of next classes.
func (r *refiner) round() int {
	n := r.n
	class, next := r.class[:n], r.next[:n]
	off, pk, to := r.off, r.pk, r.to // locals: the loop below writes r.ent
	setKey, setStamp := r.setKey, r.setStamp
	tab := r.tab[:pow2AtLeast(2*n)]
	clear(tab)
	tabMask := uint64(len(tab) - 1)
	setMask := uint64(len(setKey) - 1)
	ent := r.ent[:0]
	classes := 0
	for s := range n {
		if r.stamp++; r.stamp == 0 {
			clear(setStamp)
			r.stamp = 1
		}
		stamp := r.stamp
		base := int32(len(ent))
		var sum uint64
		for e := off[s]; e < off[s+1]; e++ {
			key := uint64(pk[e])<<32 | uint64(class[to[e]])
			h := mix64(key)
			i := h & setMask
			for setStamp[i] == stamp && setKey[i] != key {
				i = (i + 1) & setMask
			}
			if setStamp[i] != stamp { // key is new to the state's entry set
				setStamp[i], setKey[i] = stamp, key
				ent = append(ent, key)
				sum += h
			}
		}
		cnt := int32(len(ent)) - base
		hash := mix64(sum^uint64(class[s])<<32^uint64(cnt)) & r.sigMask
		for i := hash & tabMask; ; i = (i + 1) & tabMask {
			slot := &tab[i]
			if slot.rep1 == 0 {
				*slot = sigSlot{hash: hash, off: base, cnt: cnt, rep1: int32(s) + 1}
				next[s] = int32(classes)
				classes++
				break
			}
			rep := slot.rep1 - 1
			if slot.hash == hash && slot.cnt == cnt && class[rep] == class[s] &&
				r.containsAll(ent[slot.off:slot.off+cnt], setMask) {
				next[s] = next[rep]
				ent = ent[:base] // the class keeps its representative's entries
				break
			}
		}
	}
	r.ent = ent
	return classes
}

// containsAll reports whether every key is in the current state's
// entry set. Both are sets of equal size here, so containment is
// equality.
func (r *refiner) containsAll(keys []uint64, mask uint64) bool {
	for _, key := range keys {
		i := mix64(key) & mask
		for {
			if r.setStamp[i] != r.stamp {
				return false
			}
			if r.setKey[i] == key {
				break
			}
			i = (i + 1) & mask
		}
	}
	return true
}

// firstOccurrence writes class renumbered by first occurrence into dst
// and returns the class count, with remap as reusable scratch. Class
// values are remapped through a dense slice over their range; a range
// much wider than the table (possible only in foreign input) is first
// compressed to ranks.
func firstOccurrence(dst, class, remap []int32) ([]int32, int) {
	if len(class) == 0 {
		return remap, 0
	}
	lo, hi := slices.Min(class), slices.Max(class)
	var ranks []int32
	if int64(hi)-int64(lo) >= int64(2*len(class)) {
		ranks = slices.Compact(slices.Sorted(slices.Values(class)))
		lo, hi = 0, int32(len(ranks)-1)
	}
	remap = resize(remap, int(hi-lo)+1)
	for i := range remap {
		remap[i] = -1
	}
	count := 0
	for i, c := range class {
		if ranks != nil {
			rank, _ := slices.BinarySearch(ranks, c)
			c = int32(rank)
		}
		nc := remap[c-lo]
		if nc < 0 {
			nc = int32(count)
			remap[c-lo] = nc
			count++
		}
		dst[i] = nc
	}
	return remap, count
}

// mix64 is splitmix64's output function (increment plus finalizer).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func pow2AtLeast(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// resize returns s with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
