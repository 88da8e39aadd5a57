package ltl

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// This file implements the structural canonicalizer behind the query
// compilation cache (qcache): semantically equal-by-construction
// formulas that differ only in derived-operator spelling or
// commutative-operand order map to one canonical form and one stable
// key, so "F p && G q" and "G q && F p" share a cache slot.
//
// Canonicalization applies exactly the rewrites that are sound for
// *any* LTL formula:
//
//   - derived operators are desugared (F, G, W, B, ->, <-> — the same
//     equations as Desugar), leaving {atoms, true/false, !, X, U, R,
//     &&, ||},
//   - double negation and negations of constants are eliminated,
//   - &&/|| chains are flattened, their operands sorted by canonical
//     digest, duplicates removed, and constants folded
//     (identity/annihilator),
//   - the chain is rebuilt right-nested.
//
// Formulas are DAGs in practice (Desugar shares subtrees when
// expanding <->), so every traversal here memoizes per node pointer
// and operand ordering compares fixed-size digests, never rendered
// strings — the worst case stays linear in the DAG size where a
// String-based key would be exponential.

// digestSize is the size of a canonical digest (SHA-256).
const digestSize = sha256.Size

type canonizer struct {
	memo map[*Expr]*Expr            // input node → canonical node
	dig  map[*Expr][digestSize]byte // canonical node → digest
	buf  []byte                     // digest input, reused across nodes
	ops  []*Expr                    // mkNary's flattened operands
	digs [][digestSize]byte         // and their digests
}

func newCanonizer() *canonizer {
	return &canonizer{
		memo: make(map[*Expr]*Expr),
		dig:  make(map[*Expr][digestSize]byte),
	}
}

// canonPool holds CanonicalKey's canonizers, so a compile-cache lookup
// reuses their tables. A canonizer whose tables grew past
// maxPooledNodes nodes is dropped instead.
var canonPool = sync.Pool{New: func() any { return newCanonizer() }}

const maxPooledNodes = 1 << 12

// Canonical returns the canonical structural form of f. The result is
// semantically equivalent to f and shared-subtree (DAG) inputs are
// handled in time linear in the number of distinct nodes. Two
// formulas that differ only in derived-operator sugar, commutative
// operand order, duplicate &&/|| operands, or double negation have
// structurally identical canonical forms.
func Canonical(f *Expr) *Expr {
	return newCanonizer().canon(f)
}

// CanonicalKey returns a stable content digest of f's canonical form,
// suitable as a cache key: CanonicalKey(f) == CanonicalKey(g) iff
// Canonical(f) and Canonical(g) are structurally equal (SHA-256
// collision resistance). The key is stable across processes — it
// depends only on the formula's structure and atom names.
func CanonicalKey(f *Expr) string {
	c := canonPool.Get().(*canonizer)
	d := c.digest(c.canon(f))
	if len(c.memo) <= maxPooledNodes && len(c.dig) <= maxPooledNodes && cap(c.ops) <= maxPooledNodes {
		clear(c.memo)
		clear(c.dig)
		clear(c.ops[:cap(c.ops)])
		canonPool.Put(c)
	}
	return hex.EncodeToString(d[:])
}

// digest computes (memoized) the compositional SHA-256 of a canonical
// node: H(op ‖ name ‖ digest(left) ‖ digest(right)). The op byte
// disambiguates leaf/unary/binary shapes, so no length framing is
// needed. The operands are digested first, then the node's input is
// assembled in the canonizer's one reused buffer and hashed in a
// single call, so a node costs no hasher and no digest allocation.
func (c *canonizer) digest(f *Expr) [digestSize]byte {
	if d, ok := c.dig[f]; ok {
		return d
	}
	var left, right [digestSize]byte
	if f.Left != nil {
		left = c.digest(f.Left)
	}
	if f.Right != nil {
		right = c.digest(f.Right)
	}
	b := append(c.buf[:0], byte(f.Op))
	if f.Op == OpAtom {
		b = append(b, f.Name...)
	}
	if f.Left != nil {
		b = append(b, left[:]...)
	}
	if f.Right != nil {
		b = append(b, right[:]...)
	}
	c.buf = b
	d := sha256.Sum256(b)
	c.dig[f] = d
	return d
}

func (c *canonizer) canon(f *Expr) *Expr {
	if g, ok := c.memo[f]; ok {
		return g
	}
	var g *Expr
	switch f.Op {
	case OpAtom, OpTrue, OpFalse:
		g = f
	case OpNot:
		g = c.mkNot(c.canon(f.Left))
	case OpNext:
		l := c.canon(f.Left)
		// X true ≡ true, X false ≡ false.
		if l.Op == OpTrue || l.Op == OpFalse {
			g = l
		} else {
			g = Next(l)
		}
	case OpFinally: // F p ≡ true U p
		g = c.mkUntil(True(), c.canon(f.Left))
	case OpGlobal: // G p ≡ false R p
		g = c.mkRelease(False(), c.canon(f.Left))
	case OpAnd:
		g = c.mkNary(OpAnd, c.canon(f.Left), c.canon(f.Right))
	case OpOr:
		g = c.mkNary(OpOr, c.canon(f.Left), c.canon(f.Right))
	case OpImplies: // p -> q ≡ !p || q
		g = c.mkNary(OpOr, c.mkNot(c.canon(f.Left)), c.canon(f.Right))
	case OpIff: // p <-> q ≡ (p && q) || (!p && !q)
		l, r := c.canon(f.Left), c.canon(f.Right)
		g = c.mkNary(OpOr,
			c.mkNary(OpAnd, l, r),
			c.mkNary(OpAnd, c.mkNot(l), c.mkNot(r)))
	case OpUntil:
		g = c.mkUntil(c.canon(f.Left), c.canon(f.Right))
	case OpWeak: // p W q ≡ q R (p || q)
		l, r := c.canon(f.Left), c.canon(f.Right)
		g = c.mkRelease(r, c.mkNary(OpOr, l, r))
	case OpBefore: // p B q ≡ p R !q
		g = c.mkRelease(c.canon(f.Left), c.mkNot(c.canon(f.Right)))
	case OpRelease:
		g = c.mkRelease(c.canon(f.Left), c.canon(f.Right))
	default:
		panic("ltl: unknown operator in Canonical")
	}
	c.memo[f] = g
	return g
}

// mkNot builds ¬p over a canonical operand, folding constants and
// double negation.
func (c *canonizer) mkNot(p *Expr) *Expr {
	switch p.Op {
	case OpTrue:
		return False()
	case OpFalse:
		return True()
	case OpNot:
		return p.Left
	}
	return Not(p)
}

// mkUntil builds p U q over canonical operands with the constant folds
// that are unconditionally sound.
func (c *canonizer) mkUntil(p, q *Expr) *Expr {
	if q.Op == OpTrue || q.Op == OpFalse {
		return q // p U true ≡ true, p U false ≡ false
	}
	if p.Op == OpFalse {
		return q // false U q ≡ q
	}
	return Until(p, q)
}

// mkRelease builds p R q, the dual folds of mkUntil.
func (c *canonizer) mkRelease(p, q *Expr) *Expr {
	if q.Op == OpTrue || q.Op == OpFalse {
		return q
	}
	if p.Op == OpTrue {
		return q // true R q ≡ q
	}
	return Release(p, q)
}

// mkNary builds a canonical &&/|| from two canonical operands:
// flatten same-op chains, fold constants, sort by digest, drop
// duplicates, rebuild right-nested. op must be OpAnd or OpOr.
func (c *canonizer) mkNary(op Op, l, r *Expr) *Expr {
	unit, zero := OpTrue, OpFalse // && : true is identity, false annihilates
	if op == OpOr {
		unit, zero = OpFalse, OpTrue
	}
	// The operands are collected in the canonizer's buffers: nothing
	// below calls back into mkNary.
	c.ops = c.ops[:0]
	if c.flatten(op, unit, zero, l) || c.flatten(op, unit, zero, r) {
		return &Expr{Op: zero}
	}
	ops := c.ops
	if len(ops) == 0 {
		return &Expr{Op: unit}
	}
	// Sort by digest, then deduplicate (equal digest ⇒ structurally
	// equal canonical operand — p && p ≡ p).
	c.digs = c.digs[:0]
	for _, e := range ops {
		c.digs = append(c.digs, c.digest(e))
	}
	digs := c.digs
	for i := 1; i < len(ops); i++ { // insertion sort keyed by digest
		e, d := ops[i], digs[i]
		j := i - 1
		for j >= 0 && cmpDigest(digs[j], d) > 0 {
			ops[j+1], digs[j+1] = ops[j], digs[j]
			j--
		}
		ops[j+1], digs[j+1] = e, d
	}
	// Rebuild right-nested from the back, skipping each operand equal
	// to the one before it.
	res := ops[len(ops)-1]
	for i := len(ops) - 2; i >= 0; i-- {
		if digs[i] != digs[i+1] {
			res = &Expr{Op: op, Left: ops[i], Right: res}
		}
	}
	return res
}

// flatten appends the operands of the op chain e to c.ops, dropping
// units, and reports whether it met the annihilator zero.
func (c *canonizer) flatten(op, unit, zero Op, e *Expr) bool {
	switch e.Op {
	case op:
		return c.flatten(op, unit, zero, e.Left) || c.flatten(op, unit, zero, e.Right)
	case zero:
		return true
	case unit:
		return false
	}
	c.ops = append(c.ops, e)
	return false
}

func cmpDigest(a, b [digestSize]byte) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
