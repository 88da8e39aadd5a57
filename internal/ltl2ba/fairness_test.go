package ltl2ba

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"contractdb/internal/ltl"
	"contractdb/internal/vocab"
)

// TestFairnessStaysPolynomial pins the translation of the fairness
// family G F e0 ∧ … ∧ G F e(n−1) by size, not time. Each conjunct is
// one state with an accepting self-loop, every product of the fold
// stays one state, and the single degeneralization yields n+1 states.
// State-based acceptance made the products double per conjunct
// instead (256 states at n=8).
func TestFairnessStaysPolynomial(t *testing.T) {
	const n = 16
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("G F e%d", i)
	}
	spec := ltl.MustParse(strings.Join(parts, " && "))
	ctx := context.Background()
	voc := vocab.New()
	sc := scratchPool.Get().(*scratch)
	var g *gba
	for i, part := range parts {
		voc.Add(fmt.Sprintf("e%d", i))
		h, err := sc.conjunct(ctx, voc, ltl.MustParse(part))
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			g = h
		} else if g, err = sc.product(ctx, g, h); err != nil {
			t.Fatal(err)
		} else if g, err = sc.reduce(ctx, sc.trim(g)); err != nil {
			t.Fatal(err)
		}
		if got := g.NumStates(); got > 1 {
			t.Fatalf("the fold's product of %d conjuncts has %d states, want 1", i+1, got)
		}
	}
	a, err := Translate(voc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NumStates(); got > n+1 {
		t.Fatalf("%d-conjunct fairness translates to %d states, want at most %d", n, got, n+1)
	}
}
