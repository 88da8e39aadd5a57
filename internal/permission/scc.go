package permission

import (
	"math"
	"math/bits"
)

// frame is a DFS cursor over one pair's product successors: ci is the
// contract edge under way, wi the next word of that edge's target row
// to read, and rem the bits of word wi-1 not yet descended into.
type frame struct {
	pair int32
	ci   int32
	wi   int32
	rem  uint64
}

// root is a Couvreur root-stack entry: the DFS index of a partial
// component's root and the acceptance marks its members carry.
type root struct {
	index int32
	acc   uint8
}

// Acceptance marks of the product's generalized Büchi condition.
const (
	accContract = 1 << iota // a contract-final pair
	accQuery                // a query-final pair
	accBoth     = accContract | accQuery
)

// sccSearch decides simultaneous-lasso existence with Couvreur's
// on-the-fly SCC emptiness check (FM'99) over the implicit product: a
// simultaneous lasso exists iff some reachable product component has
// an internal edge, a contract-final pair and a query-final pair. Any
// two pairs of a strongly connected component lie on a common cycle,
// so the three conditions compose into one witness cycle.
//
// The DFS keeps a stack of roots, one per partial component, each
// with the acceptance marks of its members. An edge into a pair that
// is still active (its component is not complete) merges every root
// above that pair into the one below it, OR-ing their marks; the
// search answers "permits" as soon as a merge leaves a root carrying
// both marks, i.e. at the edge that closes the first accepting cycle,
// without finishing the component or the rest of the product.
//
// Visited and active pairs are bitsets over query states, W words per
// contract state, so one contract edge cs → ct is handled a row word
// at a time: row &^ visited[ct] are the unvisited successors the DFS
// descends into, row & active[ct] the back and cross edges merged in
// one pass (the minimum index wins), and the rest — completed pairs —
// are dropped 64 at a time. No successor list is written.
func (s *search) sccSearch() bool {
	sc, cc, qc := s.sc, s.cc, s.qc
	nq, W := s.nq, s.W
	visited, active, index := sc.visited, sc.active, sc.index
	rows, labelGen := sc.rows, sc.labelGen
	roots, stack, frames := sc.roots[:0], sc.sccStack[:0], sc.frames[:0]
	next := int32(0)
	found := false
	// v is the pair to expand next, -1 when the top frame resumes.
	v := int32(int(cc.Init)*nq + int(qc.Init))
search:
	for {
		if v >= 0 {
			if s.tick() {
				break
			}
			cs, qs := int(v)/nq, int(v)%nq
			bit := uint64(1) << uint(qs&63)
			visited[cs*W+qs>>6] |= bit
			active[cs*W+qs>>6] |= bit
			index[v] = next
			var acc uint8
			if cc.Final[cs] {
				acc |= accContract
			}
			if qc.Final[qs] {
				acc |= accQuery
			}
			roots = append(roots, root{index: next, acc: acc})
			next++
			stack = append(stack, v)
			frames = append(frames, frame{pair: v, ci: cc.EdgeOff[cs]})
			s.stats.PairsVisited++
			v = -1
		}
		// Resume the top frame's cursor in locals; it is written back
		// only when the DFS descends.
		f := &frames[len(frames)-1]
		cs, qs := int(f.pair)/nq, int(f.pair)%nq
		ci, wi, rem := f.ci, int(f.wi), f.rem
		for end := cc.EdgeOff[cs+1]; ci < end; ci, wi = ci+1, 0 {
			ct := int(cc.EdgeTo[ci])
			cl := int(cc.EdgeLabel[ci])
			if labelGen[cl] != s.gen {
				s.fillLabel(cl)
			}
			row := (cl*nq + qs) * W
			for rem != 0 || wi < W {
				if rem == 0 {
					x, tw := rows[row+wi], ct*W+wi
					if back := x & active[tw]; back != 0 {
						low := int32(math.MaxInt32)
						base := ct*nq + wi<<6
						for ; back != 0; back &= back - 1 {
							low = min(low, index[base+bits.TrailingZeros64(back)])
						}
						var acc uint8
						for roots[len(roots)-1].index > low {
							acc |= roots[len(roots)-1].acc
							roots = roots[:len(roots)-1]
						}
						top := &roots[len(roots)-1]
						if top.acc |= acc; top.acc == accBoth {
							found = true
							break search
						}
					}
					rem = x &^ visited[tw]
					wi++
					continue
				}
				b := bits.TrailingZeros64(rem)
				rem &= rem - 1
				// A descendant may have reached this successor since the
				// word was read. If it is still active, it already belongs
				// to the top root's component, so there is nothing to merge.
				if visited[ct*W+wi-1]&(1<<uint(b)) == 0 {
					f.ci, f.wi, f.rem = ci, int32(wi), rem
					v = int32(ct*nq + ((wi-1)<<6 | b))
					continue search
				}
			}
		}
		// Every edge is done. If the pair is its component's root, the
		// component is complete: its members stop being active.
		if u := f.pair; roots[len(roots)-1].index == index[u] {
			roots = roots[:len(roots)-1]
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				mc, mq := int(m)/nq, int(m)%nq
				active[mc*W+mq>>6] &^= 1 << uint(mq&63)
				if m == u {
					break
				}
			}
		}
		if frames = frames[:len(frames)-1]; len(frames) == 0 {
			break
		}
	}
	sc.roots, sc.sccStack, sc.frames = roots[:0], stack[:0], frames[:0]
	return found
}
