package ltl

// Desugar eliminates derived operators, returning a formula over
// atoms, true/false, !, &&, ||, X, U and R only:
//
//	F p      ≡ true U p
//	G p      ≡ false R p
//	p W q    ≡ q R (p || q)
//	p B q    ≡ p R !q            (from ¬(¬p U q))
//	p -> q   ≡ !p || q
//	p <-> q  ≡ (p && q) || (!p && !q)
func Desugar(f *Expr) *Expr {
	switch f.Op {
	case OpAtom, OpTrue, OpFalse:
		return f
	case OpNot:
		return Not(Desugar(f.Left))
	case OpNext:
		return Next(Desugar(f.Left))
	case OpFinally:
		return Until(True(), Desugar(f.Left))
	case OpGlobal:
		return Release(False(), Desugar(f.Left))
	case OpAnd:
		return And(Desugar(f.Left), Desugar(f.Right))
	case OpOr:
		return Or(Desugar(f.Left), Desugar(f.Right))
	case OpImplies:
		return Or(Not(Desugar(f.Left)), Desugar(f.Right))
	case OpIff:
		l, r := Desugar(f.Left), Desugar(f.Right)
		return Or(And(l, r), And(Not(l), Not(r)))
	case OpUntil:
		return Until(Desugar(f.Left), Desugar(f.Right))
	case OpWeak:
		l, r := Desugar(f.Left), Desugar(f.Right)
		return Release(r, Or(l, r))
	case OpBefore:
		return Release(Desugar(f.Left), Not(Desugar(f.Right)))
	case OpRelease:
		return Release(Desugar(f.Left), Desugar(f.Right))
	default:
		panic("ltl: unknown operator in Desugar")
	}
}

// NNF returns the negation normal form of f: derived operators are
// eliminated (see Desugar) and negation is pushed inward until it
// applies only to atoms. The result uses atoms, literals, true/false,
// &&, ||, X, U and R. It desugars as it goes, building the same tree
// as normalizing Desugar(f) without allocating that copy first.
func NNF(f *Expr) *Expr {
	return nnf(f, false)
}

// nnf returns the negation normal form of f, or of ¬f when neg is set.
func nnf(f *Expr, neg bool) *Expr {
	switch f.Op {
	case OpAtom:
		if neg {
			return Not(f)
		}
		return f
	case OpTrue:
		if neg {
			return False()
		}
		return f
	case OpFalse:
		if neg {
			return True()
		}
		return f
	case OpNot:
		return nnf(f.Left, !neg)
	case OpNext:
		return Next(nnf(f.Left, neg))
	case OpAnd:
		if neg {
			return Or(nnf(f.Left, true), nnf(f.Right, true))
		}
		return And(nnf(f.Left, false), nnf(f.Right, false))
	case OpOr:
		if neg {
			return And(nnf(f.Left, true), nnf(f.Right, true))
		}
		return Or(nnf(f.Left, false), nnf(f.Right, false))
	case OpUntil:
		if neg {
			return Release(nnf(f.Left, true), nnf(f.Right, true))
		}
		return Until(nnf(f.Left, false), nnf(f.Right, false))
	case OpRelease:
		if neg {
			return Until(nnf(f.Left, true), nnf(f.Right, true))
		}
		return Release(nnf(f.Left, false), nnf(f.Right, false))
	case OpFinally: // true U p
		if neg {
			return Release(False(), nnf(f.Left, true))
		}
		return Until(True(), nnf(f.Left, false))
	case OpGlobal: // false R p
		if neg {
			return Until(True(), nnf(f.Left, true))
		}
		return Release(False(), nnf(f.Left, false))
	case OpImplies: // !p || q
		if neg {
			return And(nnf(f.Left, false), nnf(f.Right, true))
		}
		return Or(nnf(f.Left, true), nnf(f.Right, false))
	case OpIff: // (p && q) || (!p && !q)
		if neg {
			return And(Or(nnf(f.Left, true), nnf(f.Right, true)), Or(nnf(f.Left, false), nnf(f.Right, false)))
		}
		return Or(And(nnf(f.Left, false), nnf(f.Right, false)), And(nnf(f.Left, true), nnf(f.Right, true)))
	case OpWeak: // q R (p || q)
		if neg {
			return Until(nnf(f.Right, true), And(nnf(f.Left, true), nnf(f.Right, true)))
		}
		return Release(nnf(f.Right, false), Or(nnf(f.Left, false), nnf(f.Right, false)))
	case OpBefore: // p R !q
		if neg {
			return Until(nnf(f.Left, true), nnf(f.Right, false))
		}
		return Release(nnf(f.Left, false), nnf(f.Right, true))
	default:
		panic("ltl: unknown operator in NNF")
	}
}

// Simplify applies cheap, semantics-preserving local rewrites:
// constant folding for boolean connectives, absorption of constants
// under temporal operators, and idempotence (p && p → p). It works on
// any formula but is most useful on NNF output before automaton
// construction.
func Simplify(f *Expr) *Expr {
	if f == nil {
		return nil
	}
	l, r := Simplify(f.Left), Simplify(f.Right)
	switch f.Op {
	case OpNot:
		switch l.Op {
		case OpTrue:
			return False()
		case OpFalse:
			return True()
		case OpNot:
			return l.Left
		}
	case OpAnd:
		switch {
		case l.Op == OpFalse || r.Op == OpFalse:
			return False()
		case l.Op == OpTrue:
			return r
		case r.Op == OpTrue:
			return l
		case l.Equal(r):
			return l
		}
	case OpOr:
		switch {
		case l.Op == OpTrue || r.Op == OpTrue:
			return True()
		case l.Op == OpFalse:
			return r
		case r.Op == OpFalse:
			return l
		case l.Equal(r):
			return l
		}
	case OpNext:
		if l.Op == OpTrue || l.Op == OpFalse {
			return l
		}
	case OpFinally:
		switch l.Op {
		case OpTrue, OpFalse:
			return l
		case OpFinally: // FFp ≡ Fp
			return l
		}
	case OpGlobal:
		switch l.Op {
		case OpTrue, OpFalse:
			return l
		case OpGlobal: // GGp ≡ Gp
			return l
		}
	case OpUntil:
		switch {
		case r.Op == OpTrue || r.Op == OpFalse:
			return r // p U true ≡ true, p U false ≡ false
		case l.Op == OpFalse:
			return r // false U q ≡ q
		case l.Op == OpTrue:
			return Finally(r)
		case l.Equal(r):
			return l
		}
	case OpRelease:
		switch {
		case r.Op == OpTrue || r.Op == OpFalse:
			return r
		case l.Op == OpTrue:
			return r // true R q ≡ q
		case l.Op == OpFalse:
			return Globally(r)
		case l.Equal(r):
			return l
		}
	case OpImplies:
		switch {
		case l.Op == OpFalse || r.Op == OpTrue:
			return True()
		case l.Op == OpTrue:
			return r
		case r.Op == OpFalse:
			return Simplify(Not(l))
		}
	}
	if l == f.Left && r == f.Right {
		return f
	}
	return &Expr{Op: f.Op, Name: f.Name, Left: l, Right: r}
}
