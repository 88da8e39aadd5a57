package permission

import "math/bits"

// This file holds the target rows both kernels read and the compiled
// Algorithm 2 (NestedDFS) kernel.
//
// A target row, indexed by (contract label cl, query state qs), is a
// bitset over query states of W = ⌈nq/64⌉ words: bit qt is set iff some
// query edge qs → qt is compatible with cl — it cites only
// contract-vocabulary events and its literals do not conflict with cl.
// Rows fill lazily per contract label as a search first crosses it
// (fillLabel), so the Conflicts work is bounded by the labels a check
// actually uses, and no Conflicts call runs inside a search proper. A
// product pair (cs, qs)'s successors through contract edge cs → ct are
// then the set bits of row (label, qs), read as pairs (ct, qt).
//
// The NestedDFS kernel adds a per-search adjacency memo (succ) on top
// of the rows: the successor list of a pair's first expansion is kept
// in the arena, so the nested cycle searches — which revisit pairs
// once per knot — re-expand by walking packed int32 entries that
// already carry the contract-final flag transition. The SCC kernel
// expands each pair once and reads the rows directly.

// prepRows sizes the target rows for the current (contract, query)
// pair. Layout: row (cl, qs) occupies words [(cl*nq+qs)*W,
// (cl*nq+qs+1)*W) of the arena's rows; stale words from earlier checks
// are dead until their label's labelGen stamp matches the current
// generation.
func (s *search) prepRows() {
	sc, cc, qc := s.sc, s.cc, s.qc
	// Condition (i) of compatibility depends only on the query label.
	sc.qlOK = ensureBool(sc.qlOK, len(qc.Labels))
	for j, ql := range qc.Labels {
		sc.qlOK[j] = ql.Vars().SubsetOf(cc.Events)
	}
	sc.rows = ensureU64(sc.rows, len(cc.Labels)*s.nq*s.W)
	sc.labelGen = ensureU32(sc.labelGen, len(cc.Labels))
}

// fillLabel populates contract label cl's target rows for every query
// state — the only place Conflicts runs.
func (s *search) fillLabel(cl int) {
	sc, qc, W := s.sc, s.qc, s.W
	l := s.cc.Labels[cl]
	m := sc.rows[cl*s.nq*W : (cl+1)*s.nq*W]
	clear(m)
	for qs := 0; qs < s.nq; qs++ {
		for j := qc.EdgeOff[qs]; j < qc.EdgeOff[qs+1]; j++ {
			ql := qc.EdgeLabel[j]
			if sc.qlOK[ql] && !l.Conflicts(qc.Labels[ql]) {
				qt := int(qc.EdgeTo[j])
				m[qs*W+qt>>6] |= 1 << uint(qt&63)
			}
		}
	}
	sc.labelGen[cl] = s.gen
}

// row returns the target row for (contract label cl, query state qs),
// filling the label's rows on first use.
func (s *search) row(cl, qs int) []uint64 {
	if s.sc.labelGen[cl] != s.gen {
		s.fillLabel(cl)
	}
	off := (cl*s.nq + qs) * s.W
	return s.sc.rows[off : off+s.W]
}

// succ returns pair p's successors in the implicit product, memoized
// in the arena. The first expansion derives the list from the target
// rows; every revisit — the nested cycle searches re-expand each pair
// up to twice per knot — reuses the flat slice, which turns the hot
// inner loops into a linear walk over int32s. Entries encode (target
// pair)<<1 | (contract-final bit of the target), so cycle searches read
// the flag transition without touching the automata. The returned
// slice stays valid across later succ calls: adj is append-only within
// a search and written entries are never moved logically, only copied
// on growth.
func (s *search) succ(p int32) []int32 {
	sc := s.sc
	if sc.built[p] == s.gen {
		return sc.adj[sc.adjOff[p]:sc.adjEnd[p]]
	}
	cc, nq := s.cc, s.nq
	cs := int(p) / nq
	qs := int(p) % nq
	adj := sc.adj
	start := int32(len(adj))
	for ci := cc.EdgeOff[cs]; ci < cc.EdgeOff[cs+1]; ci++ {
		ct := int(cc.EdgeTo[ci])
		e := int32(ct*nq) << 1
		if cc.Final[ct] {
			e |= 1
		}
		for wi, w := range s.row(int(cc.EdgeLabel[ci]), qs) {
			for ; w != 0; w &= w - 1 {
				adj = append(adj, e+int32(wi<<6|bits.TrailingZeros64(w))<<1)
			}
		}
	}
	sc.adj = adj
	sc.adjOff[p] = start
	sc.adjEnd[p] = int32(len(adj))
	sc.built[p] = s.gen
	return adj[start:]
}

// nestedSearch is Algorithm 2's outer DFS: an explicit-stack
// enumeration of reachable product pairs, starting a nested cycle
// search at every viable knot. Expanded pairs are marked in the
// arena's per-contract-state visited bitsets.
func (s *search) nestedSearch() bool {
	sc, cc, qc := s.sc, s.cc, s.qc
	nq, W := s.nq, s.W
	visited := sc.visited
	stack := append(sc.stack[:0], int32(int(cc.Init)*nq+int(qc.Init)))
	found := false
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cs := int(v) / nq
		qs := int(v) % nq
		w, bit := cs*W+qs>>6, uint64(1)<<uint(qs&63)
		if visited[w]&bit != 0 {
			continue
		}
		if s.tick() {
			break
		}
		visited[w] |= bit
		s.stats.PairsVisited++
		if qc.Final[qs] && (!s.checker.useSeeds || s.checker.seeds[cs]) {
			s.stats.CycleSearches++
			if s.cycleSearch(v) {
				found = true
				break
			}
			if s.stop != nil {
				break
			}
		}
		for _, t := range s.succ(v) {
			stack = append(stack, t>>1)
		}
	}
	sc.stack = stack[:0]
	return found
}

// cycleSearch is the flag-doubled nested cycle search: does a product
// cycle run from the knot back to itself through a contract-final
// pair? The search space is the product graph doubled with a flag
// recording whether a contract-final pair has been seen since leaving
// the knot (the knot itself counts); memoizing (pair, flag) keeps the
// search linear. Nodes are encoded as pair<<1|flag, matching the
// cycleSeen layout.
func (s *search) cycleSearch(knot int32) bool {
	sc, cc := s.sc, s.cc
	cg := sc.nextCycleGen()
	seen := sc.cycleSeen
	start := knot << 1
	if cc.Final[int(knot)/s.nq] {
		start |= 1
	}
	cstack := append(sc.cstack[:0], start)
	found := false
loop:
	for len(cstack) > 0 {
		nd := cstack[len(cstack)-1]
		cstack = cstack[:len(cstack)-1]
		if seen[nd] == cg {
			continue
		}
		if s.tick() {
			break
		}
		seen[nd] = cg
		s.stats.CycleVisited++
		flag := nd & 1
		for _, t := range s.succ(nd >> 1) {
			tp := t >> 1
			nflag := flag | t&1
			if tp == knot {
				// Closed the cycle: accept if a contract-final pair
				// occurred on it (the knot itself counts via the
				// start flag, the closing target via its own bit).
				if nflag != 0 {
					found = true
					break loop
				}
				continue
			}
			key := tp<<1 | nflag
			if seen[key] != cg {
				cstack = append(cstack, key)
			}
		}
	}
	sc.cstack = cstack[:0]
	return found
}
