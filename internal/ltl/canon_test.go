package ltl_test

import (
	"math/rand"
	"testing"

	"contractdb/internal/ltl"
	"contractdb/internal/vocab"
)

// TestCanonicalKeyEquivalences checks that spelling variants the
// canonicalizer is designed to collapse share one key, and that
// genuinely different formulas do not.
func TestCanonicalKeyEquivalences(t *testing.T) {
	same := [][2]string{
		{"a && b", "b && a"},
		{"a || b || c", "c || (b || a)"},
		{"(a && b) && c", "c && b && a"},
		{"a && a", "a"},
		{"a && true", "a"},
		{"a || false", "a"},
		{"F p", "true U p"},
		{"G p", "false R p"},
		{"p W q", "q R (p || q)"},
		{"p W q", "q R (q || p)"},
		{"p B q", "p R !q"},
		{"p -> q", "!p || q"},
		{"p <-> q", "q <-> p"},
		{"!!p", "p"},
		{"X true", "true"},
		{"false U q", "q"},
		{"true R q", "q"},
		{"G(a && b)", "G(b && a)"},
		{"(a || b) U (c && d)", "(b || a) U (d && c)"},
	}
	for _, pair := range same {
		k0 := ltl.CanonicalKey(ltl.MustParse(pair[0]))
		k1 := ltl.CanonicalKey(ltl.MustParse(pair[1]))
		if k0 != k1 {
			t.Errorf("CanonicalKey(%q) != CanonicalKey(%q):\n  %s\n  %s", pair[0], pair[1], k0, k1)
		}
	}
	diff := [][2]string{
		{"a", "b"},
		{"a U b", "b U a"},
		{"a R b", "b R a"},
		{"X a", "a"},
		{"a && b", "a || b"},
		{"G a", "F a"},
	}
	for _, pair := range diff {
		k0 := ltl.CanonicalKey(ltl.MustParse(pair[0]))
		k1 := ltl.CanonicalKey(ltl.MustParse(pair[1]))
		if k0 == k1 {
			t.Errorf("CanonicalKey(%q) == CanonicalKey(%q), want distinct keys", pair[0], pair[1])
		}
	}
}

// TestCanonicalKeyPinned: CanonicalKey's bytes for a fixed formula
// set. The keys address compile-cache slots, so a change to how the
// digest is computed must leave every key as it was.
func TestCanonicalKeyPinned(t *testing.T) {
	for _, c := range []struct{ f, key string }{
		{"a", "022a6979e6dab7aa5ae4c3e5e45f7e977112a7e63593820dbec1ec738a24f93c"},
		{"true", "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"},
		{"!a", "455967273d811e07cfddb8972c6ac9e5aeecded38ae7168025b00420828106d6"},
		{"X a", "4ec5af679f673e18c89453472d5fc672c3cee63869b40b4fa335e706388c6e6a"},
		{"a && b", "e843a7ebf1f2bbd29ea5211a0d267d2dca192390604a95be6133eca33971c099"},
		{"F refund", "c777d21163ffe0693e006fd33f55e0f27fefec8c3ab6eef9c1d5e0b9df5336c6"},
		{"G(purchase -> F refund)", "2d8bafb9bda8fb73a0791affdda51d52e57bc5b3ccd79e75f2bf8581990fb4ae"},
		{"(a || b) U (c && d)", "38cd4a778e091f73b22f4735dabdf326238c4a97deb62e204766e690efa018b1"},
		{"p W q", "92b93567dc19df13f712d6d01069ad8230aa21e52cb13529f958584979ec36f7"},
		{"p <-> q", "0522b0c080d0782262c1453fe3c838e9ce4932ac9eee0b48ab0968f2ca034bf1"},
		{"G(!refund) && F(use && X dateChange)", "09d1760d0218220641cb1cbcbc121588d80924b89a7599b4ebbb5df0c54a2231"},
		{"(a B b) || !(c R X d)", "a7ae955e046e6ba78c6039a5324328b0da8135ce00bff2f11d76c1837ea3058a"},
	} {
		if got := ltl.CanonicalKey(ltl.MustParse(c.f)); got != c.key {
			t.Errorf("CanonicalKey(%q) = %s, want %s", c.f, got, c.key)
		}
	}
}

// TestCanonicalPreservesSemantics evaluates originals and canonical
// forms on random ultimately periodic runs; they must agree
// everywhere.
func TestCanonicalPreservesSemantics(t *testing.T) {
	voc := vocab.MustFromNames("a", "b", "c", "d")
	formulas := []string{
		"a", "!a", "a && b", "a || b", "a -> b", "a <-> b",
		"X a", "F a", "G a", "a U b", "a W b", "a B b", "a R b",
		"G(a -> F b)", "F(a && X b) || G(c U d)",
		"(a <-> b) <-> (c <-> d)",
		"!(a W (b B c))",
		"G(a -> X(!F a))",
		"a && b && c && d", "d || c || b || a",
	}
	rng := rand.New(rand.NewSource(7))
	randSet := func() vocab.Set {
		var s vocab.Set
		for id := 0; id < 4; id++ {
			if rng.Intn(2) == 1 {
				s = s.With(vocab.EventID(id))
			}
		}
		return s
	}
	for _, src := range formulas {
		f := ltl.MustParse(src)
		g := ltl.Canonical(f)
		for trial := 0; trial < 50; trial++ {
			l := ltl.Lasso{}
			for i, n := 0, rng.Intn(4); i < n; i++ {
				l.Prefix = append(l.Prefix, randSet())
			}
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				l.Cycle = append(l.Cycle, randSet())
			}
			if got, want := l.Eval(voc, g), l.Eval(voc, f); got != want {
				t.Fatalf("%q: canonical form %q disagrees on %v/%v: got %v, want %v",
					src, g, l.Prefix, l.Cycle, got, want)
			}
		}
	}
}

// TestCanonicalIdempotent: canonicalizing a canonical form is a
// fixpoint, structurally and by key.
func TestCanonicalIdempotent(t *testing.T) {
	for _, src := range []string{
		"a", "G(a -> F b)", "(a <-> b) W c", "c || b || a && a", "!(a U !b)",
	} {
		f := ltl.MustParse(src)
		g := ltl.Canonical(f)
		gg := ltl.Canonical(g)
		if !g.Equal(gg) {
			t.Errorf("%q: Canonical not idempotent: %q vs %q", src, g, gg)
		}
		if ltl.CanonicalKey(f) != ltl.CanonicalKey(g) {
			t.Errorf("%q: key changed by canonicalization", src)
		}
	}
}

// TestCanonicalKeySharedSubtrees guards the DAG-safety property: a
// deeply nested <-> chain desugars to a formula whose tree expansion
// is exponential, but the canonicalizer memoizes per shared node, so
// keying it must stay fast (this test would hang for minutes on a
// String-based key).
func TestCanonicalKeySharedSubtrees(t *testing.T) {
	f := ltl.Atom("a")
	for i := 0; i < 64; i++ {
		f = ltl.Iff(f, ltl.Atom("a"))
	}
	k1 := ltl.CanonicalKey(f)
	k2 := ltl.CanonicalKey(f)
	if k1 != k2 || k1 == "" {
		t.Fatalf("unstable key for shared-subtree formula: %q vs %q", k1, k2)
	}
}
