package permission

import (
	"slices"

	"contractdb/internal/buchi"
)

// interpreted is the reference execution of both algorithms, kept for
// the differential tests: it walks per-state edge lists read once from
// the automata and re-tests label compatibility at every product edge,
// with none of the
// production kernels' target rows, bitsets or pooled arena. SCC is a
// textbook Tarjan pass that decides only once the accepting component
// is complete; NestedDFS is Algorithm 2 as printed. The embedded
// search supplies the step budget, cancellation and counters.
type interpreted struct {
	search
	contract, query *buchi.BA
	cout, qout      [][]buchi.Edge // each state's edges

	// edgeOK[qOff[qs]+qi] reports whether query edge qi of qs cites only
	// contract events (condition (i) of compatibility).
	edgeOK []bool
	qOff   []int32

	visited   []bool
	onStack   []bool
	index     []int32
	low       []int32
	cycleGen  uint32
	cycleSeen []uint32 // (pair<<1|flag) → nested search that visited it
}

// iframe is an interpreted-Tarjan traversal frame; its cursor resumes
// the contract × query out-edge double loop where a child preempted
// it.
type iframe struct {
	pair   int32
	ci, qi int32
}

// permitsInterpreted runs the interpreted kernel for algo.
func (c *Checker) permitsInterpreted(query *buchi.BA, algo Algorithm) (bool, Stats) {
	nc, nq := c.contract.NumStates(), query.NumStates()
	s := &interpreted{
		search:   search{checker: c, nc: nc, nq: nq},
		contract: c.contract,
		query:    query,
		cout:     rows(c.contract),
		qout:     rows(query),
		visited:  make([]bool, nc*nq),
	}
	s.prepEdgeOK()
	var found bool
	if algo == SCC {
		s.onStack = make([]bool, nc*nq)
		s.index = make([]int32, nc*nq)
		s.low = make([]int32, nc*nq)
		found = s.sccSearch()
	} else {
		s.cycleSeen = make([]uint32, 2*nc*nq)
		found = s.nestedSearch()
	}
	return found, s.stats
}

// rows returns a's edges per state.
func rows(a *buchi.BA) [][]buchi.Edge {
	out := make([][]buchi.Edge, a.NumStates())
	for s := range out {
		out[s] = slices.Collect(a.Edges(buchi.StateID(s)))
	}
	return out
}

func (s *interpreted) pair(cs, qs buchi.StateID) int { return int(cs)*s.nq + int(qs) }

// prepEdgeOK pre-resolves which query labels cite only contract events
// into the flat edgeOK array; the per-pair check then reduces to a
// literal conflict test.
func (s *interpreted) prepEdgeOK() {
	s.qOff = make([]int32, s.nq)
	total := 0
	for q, out := range s.qout {
		s.qOff[q] = int32(total)
		total += len(out)
	}
	s.edgeOK = make([]bool, total)
	for q, out := range s.qout {
		off := int(s.qOff[q])
		for i, e := range out {
			s.edgeOK[off+i] = e.Label.Vars().SubsetOf(s.contract.Events)
		}
	}
}

// nestedSearch is the outer DFS of Algorithm 2: an explicit-stack
// enumeration of reachable product pairs that starts a nested cycle
// search at every viable knot.
func (s *interpreted) nestedSearch() bool {
	nq := s.nq
	stack := []int32{int32(s.pair(s.contract.Init, s.query.Init))}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.visited[v] {
			continue
		}
		if s.tick() {
			return false
		}
		s.visited[v] = true
		s.stats.PairsVisited++
		cs := buchi.StateID(int(v) / nq)
		qs := buchi.StateID(int(v) % nq)
		if s.query.Final[qs] && (!s.checker.useSeeds || s.checker.seeds[cs]) {
			s.stats.CycleSearches++
			if s.cycleSearch(cs, qs) {
				return true
			}
			if s.stop != nil {
				return false
			}
		}
		off := int(s.qOff[qs])
		for _, ec := range s.cout[cs] {
			for qi, eq := range s.qout[qs] {
				if !s.edgeOK[off+qi] || ec.Label.Conflicts(eq.Label) {
					continue
				}
				if t := int32(s.pair(ec.To, eq.To)); !s.visited[t] {
					stack = append(stack, t)
				}
			}
		}
	}
	return false
}

// cycleSearch looks for a product cycle from the knot back to itself
// that passes through a pair whose contract state is final. The search
// space is the product graph doubled with a flag recording whether a
// contract-final pair has been seen since leaving the knot (the knot
// itself counts); memoizing (pair, flag) keeps the search linear.
func (s *interpreted) cycleSearch(kc, kq buchi.StateID) bool {
	s.cycleGen++
	cg := s.cycleGen
	start := int32(s.pair(kc, kq)) << 1
	if s.contract.Final[kc] {
		start |= 1
	}
	cstack := []int32{start}
	for len(cstack) > 0 {
		nd := cstack[len(cstack)-1]
		cstack = cstack[:len(cstack)-1]
		if s.cycleSeen[nd] == cg {
			continue
		}
		if s.tick() {
			return false
		}
		s.cycleSeen[nd] = cg
		s.stats.CycleVisited++
		flag := nd&1 != 0
		p := int(nd >> 1)
		cs := buchi.StateID(p / s.nq)
		qs := buchi.StateID(p % s.nq)
		off := int(s.qOff[qs])
		for _, ec := range s.cout[cs] {
			for qi, eq := range s.qout[qs] {
				if !s.edgeOK[off+qi] || ec.Label.Conflicts(eq.Label) {
					continue
				}
				nflag := flag || s.contract.Final[ec.To]
				if ec.To == kc && eq.To == kq {
					// Closed the cycle: accept if a contract-final pair
					// occurred on it (the knot itself counts via the
					// start flag, the closing target via nflag).
					if nflag {
						return true
					}
					continue
				}
				key := int32(s.pair(ec.To, eq.To)) << 1
				if nflag {
					key |= 1
				}
				if s.cycleSeen[key] != cg {
					cstack = append(cstack, key)
				}
			}
		}
	}
	return false
}

// sccSearch decides simultaneous-lasso existence with one Tarjan pass
// over the implicit product graph: a simultaneous lasso exists iff
// some reachable product component has an internal edge, contains a
// query-final pair and contains a contract-final pair. It answers only
// once a qualifying component is complete and popped.
func (s *interpreted) sccSearch() bool {
	nq := s.nq
	visited, onStack, index, low := s.visited, s.onStack, s.index, s.low
	var stack []int32
	work := []iframe{{pair: int32(s.pair(s.contract.Init, s.query.Init))}}
	next := int32(0)
	for len(work) > 0 {
		f := &work[len(work)-1]
		v := f.pair
		cs := buchi.StateID(int(v) / nq)
		qs := buchi.StateID(int(v) % nq)
		if !visited[v] {
			if s.tick() {
				return false
			}
			visited[v] = true
			index[v] = next
			low[v] = next
			next++
			stack = append(stack, v)
			onStack[v] = true
			s.stats.PairsVisited++
		}
		advanced := false
		cout := s.cout[cs]
		qout := s.qout[qs]
		off := int(s.qOff[qs])
		for int(f.ci) < len(cout) {
			ec := cout[f.ci]
			for int(f.qi) < len(qout) {
				qi := int(f.qi)
				f.qi++
				if !s.edgeOK[off+qi] || ec.Label.Conflicts(qout[qi].Label) {
					continue
				}
				w := int32(s.pair(ec.To, qout[qi].To))
				if !visited[w] {
					work = append(work, iframe{pair: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				break
			}
			f.ci++
			f.qi = 0
		}
		if advanced {
			continue
		}
		if low[v] == index[v] {
			queryFinal, contractFinal := false, false
			cut := len(stack)
			for {
				cut--
				m := stack[cut]
				onStack[m] = false
				contractFinal = contractFinal || s.contract.Final[int(m)/nq]
				queryFinal = queryFinal || s.query.Final[int(m)%nq]
				if m == v {
					break
				}
			}
			multi := len(stack)-cut > 1
			stack = stack[:cut]
			if queryFinal && contractFinal && (multi || s.selfLoop(v)) {
				return true
			}
		}
		work = work[:len(work)-1]
		if len(work) > 0 {
			if p := work[len(work)-1].pair; low[v] < low[p] {
				low[p] = low[v]
			}
		}
	}
	return false
}

// selfLoop reports whether singleton component {v} has a product
// self-edge: more than one member always supports a cycle (strong
// connectivity), a singleton only this way.
func (s *interpreted) selfLoop(v int32) bool {
	cs := buchi.StateID(int(v) / s.nq)
	qs := buchi.StateID(int(v) % s.nq)
	off := int(s.qOff[qs])
	for _, ec := range s.cout[cs] {
		if ec.To != cs {
			continue
		}
		for qi, eq := range s.qout[qs] {
			if eq.To == qs && s.edgeOK[off+qi] && !ec.Label.Conflicts(eq.Label) {
				return true
			}
		}
	}
	return false
}
