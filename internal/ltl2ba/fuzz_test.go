package ltl2ba_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"time"

	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/vocab"
)

// fairness returns G F e0 ∧ … ∧ G F e(n−1).
func fairness(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("G F e%d", i)
	}
	return strings.Join(parts, " && ")
}

// FuzzTranslate runs small formulas through TranslateBounded under a
// short deadline. A translation may end in a named error — the
// deadline, or ErrTooLarge — but never in a hang or a panic, and an
// automaton it returns must accept exactly the runs the lasso
// evaluator says satisfy the formula: random runs, and runs guided by
// the automaton itself. The seed corpus holds the shapes that were
// once exponential or quadratic to translate: the fairness family,
// deep X chains, and the negated persistence disjunction.
func FuzzTranslate(f *testing.F) {
	for _, n := range []int{2, 4, 8, 12} {
		f.Add(fairness(n))
	}
	for _, n := range []int{1, 10, 100, 1000} {
		f.Add(strings.Repeat("X ", n) + "e0")
	}
	f.Add("!(F G e0 || F G e1 || F G e2 || F G e3 || F G e4 || F G e5)")
	f.Add("G(p -> F q) && G(q -> F r) && (p U r)")
	f.Add("(p U (q R r)) W !s")
	f.Add("F p -> (q -> !p U (r && !p)) U p")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		spec, err := ltl.Parse(src)
		if err != nil || len(spec.Atoms()) > 12 {
			return
		}
		voc := vocab.New()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		a, err := ltl2ba.TranslateBounded(ctx, voc, spec, 0)
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ltl2ba.ErrTooLarge):
			return
		case err != nil:
			t.Fatalf("Translate(%s): %v", spec, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Translate(%s) produced an invalid automaton: %v", spec, err)
		}
		h := fnv.New64a()
		h.Write([]byte(src))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		for j := range 40 {
			run := ltltest.Lasso(rng, voc.Len(), 4, 4)
			if j%2 == 1 {
				run = walkLasso(rng, a)
			}
			if got, want := a.AcceptsLasso(run), run.Eval(voc, spec); got != want {
				t.Fatalf("BA(%s) on run prefix=%v cycle=%v: accepts=%v, evaluator says %v",
					spec, run.Prefix, run.Cycle, got, want)
			}
		}
	})
}
