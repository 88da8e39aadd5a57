package ltl_test

import (
	"math/rand"
	"testing"

	"contractdb/internal/ltl"
	"contractdb/internal/ltltest"
	"contractdb/internal/vocab"
)

var voc = vocab.MustFromNames("p", "q", "r", "s")

func set(names ...string) vocab.Set {
	s, err := voc.SetOf(names...)
	if err != nil {
		panic(err)
	}
	return s
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"p",
		"true",
		"false",
		"!p",
		"X p",
		"F p",
		"G p",
		"p U q",
		"p W q",
		"p B q",
		"p R q",
		"p && q",
		"p || q",
		"p -> q",
		"p <-> q",
		"G(p -> X(!F p))",
		"G(p B (q || r || s))",
		"G((p && !q && F q) -> (!r U q))",
		"p U (q U r)",
		"(p U q) U r",
		"!p && !q && !r",
		"p -> q -> r",
		"(p -> q) -> r",
		"F r -> (p -> (!r U (s && !r))) U r",
		"G(p <-> (q <-> r))",
	}
	for _, src := range cases {
		t.Run(src, func(t *testing.T) {
			f, err := ltl.Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			printed := f.String()
			g, err := ltl.Parse(printed)
			if err != nil {
				t.Fatalf("reparse of %q (printed as %q): %v", src, printed, err)
			}
			if !f.Equal(g) {
				t.Errorf("round trip changed the AST:\n  source:  %s\n  printed: %s", src, printed)
			}
		})
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"p && q || r", "(p && q) || r"},
		{"p || q && r", "p || (q && r)"},
		{"p U q && r", "(p U q) && r"},
		{"!p U q", "(!p) U q"},
		{"G p U q", "(G p) U q"},
		{"p -> q || r", "p -> (q || r)"},
		{"p -> q -> r", "p -> (q -> r)"},
		{"p <-> q -> r", "p <-> (q -> r)"},
		{"p U q U r", "p U (q U r)"},
		{"X p U q", "(X p) U q"},
		{"F p && G q", "(F p) && (G q)"},
	}
	for _, c := range cases {
		got, err := ltl.Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		want, err := ltl.Parse(c.want)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.want, err)
		}
		if !got.Equal(want) {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"p &&",
		"(p",
		"p)",
		"p q",
		"U p",
		"p U",
		"G",
		"p <- q",
		"p - q",
		"p & & q",
		"123",
		"p && (q || )",
	}
	for _, src := range cases {
		if f, err := ltl.Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded with %s, want error", src, f)
		}
	}
}

func TestReservedOperatorNames(t *testing.T) {
	// Single-letter operator names are not usable as atoms.
	for _, src := range []string{"U", "G && p", "X"} {
		if f, err := ltl.Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded with %s, want error", src, f)
		}
	}
}

func TestAtoms(t *testing.T) {
	f := ltl.MustParse("G(purchase -> (use || refund) U dateChange)")
	got := f.Atoms()
	want := []string{"dateChange", "purchase", "refund", "use"}
	if len(got) != len(want) {
		t.Fatalf("Atoms() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Atoms() = %v, want %v", got, want)
		}
	}
}

func TestEvalBasics(t *testing.T) {
	// Run: p; q; then (r; empty) forever.
	run := ltl.Lasso{
		Prefix: []vocab.Set{set("p"), set("q")},
		Cycle:  []vocab.Set{set("r"), set()},
	}
	cases := []struct {
		src  string
		want bool
	}{
		{"p", true},
		{"q", false},
		{"X q", true},
		{"X X r", true},
		{"F q", true},
		{"F p && F q && F r", true},
		{"G p", false},
		{"F G p", false},
		{"G F r", true},   // r recurs in the cycle
		{"F G !q", true},  // q never appears after position 1
		{"p U q", true},   // p holds at 0, q at 1
		{"!p U q", false}, // p holds at 0, so !p fails before q
		{"p W q", true},   // same as p U q when q is reached
		{"q B p", false},  // q is not true before p (p is first)
		{"p B q", true},   // p happens before q
		{"r R (p || q || r)", true},
		{"false R p", false}, // ≡ G p
		{"true U r", true},   // ≡ F r
	}
	for _, c := range cases {
		f := ltl.MustParse(c.src)
		if got := run.Eval(voc, f); got != c.want {
			t.Errorf("Eval(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalPUQ(t *testing.T) {
	// Explicit check of the tricky p U q cases flagged above.
	run := ltl.Lasso{
		Prefix: []vocab.Set{set("p"), set("q")},
		Cycle:  []vocab.Set{set()},
	}
	if !run.Eval(voc, ltl.MustParse("p U q")) {
		t.Error("p U q should hold: p at 0, q at 1")
	}
	runNoQ := ltl.Lasso{Prefix: []vocab.Set{set("p")}, Cycle: []vocab.Set{set("p")}}
	if runNoQ.Eval(voc, ltl.MustParse("p U q")) {
		t.Error("p U q should fail when q never occurs")
	}
	if !runNoQ.Eval(voc, ltl.MustParse("p W q")) {
		t.Error("p W q should hold when p holds forever")
	}
}

func TestEvalUnknownAtomIsFalse(t *testing.T) {
	run := ltl.Lasso{Cycle: []vocab.Set{set("p")}}
	if run.Eval(voc, ltl.MustParse("somethingElse")) {
		t.Error("atom outside the vocabulary must evaluate to false")
	}
	if !run.Eval(voc, ltl.MustParse("G !somethingElse")) {
		t.Error("negated unknown atom must hold globally")
	}
}

// TestRewritesPreserveSemantics is the core oracle property: NNF,
// Desugar and Simplify must not change the truth value of a formula on
// any run.
func TestRewritesPreserveSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := ltltest.Config{Atoms: []string{"p", "q", "r", "s"}, MaxDepth: 5}
	for i := 0; i < 3000; i++ {
		f := ltltest.Expr(rng, cfg)
		run := ltltest.Lasso(rng, 4, 3, 3)
		want := run.Eval(voc, f)
		for name, g := range map[string]*ltl.Expr{
			"NNF":      ltl.NNF(f),
			"Desugar":  ltl.Desugar(f),
			"Simplify": ltl.Simplify(f),
			"all":      ltl.Simplify(ltl.NNF(f)),
		} {
			if got := run.Eval(voc, g); got != want {
				t.Fatalf("%s changed semantics of %s\n  rewritten: %s\n  run: prefix=%v cycle=%v\n  want %v, got %v",
					name, f, g, run.Prefix, run.Cycle, want, got)
			}
		}
	}
}

// TestNNFDesugarsInPlace: NNF, which desugars as it normalizes,
// builds the tree that normalizing the desugared formula builds, so
// the translator's automata do not depend on which route it takes.
func TestNNFDesugarsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := ltltest.Config{Atoms: []string{"p", "q", "r"}, MaxDepth: 6}
	for i := 0; i < 3000; i++ {
		f := ltltest.Expr(rng, cfg)
		if got, want := ltl.NNF(f), ltl.NNF(ltl.Desugar(f)); !got.Equal(want) {
			t.Fatalf("NNF(%s) = %s, want NNF(Desugar) = %s", f, got, want)
		}
	}
}

func TestNNFShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := ltltest.Config{Atoms: []string{"p", "q", "r"}, MaxDepth: 5}
	for i := 0; i < 500; i++ {
		f := ltltest.Expr(rng, cfg)
		g := ltl.NNF(f)
		g.Walk(func(e *ltl.Expr) {
			switch e.Op {
			case ltl.OpAtom, ltl.OpTrue, ltl.OpFalse, ltl.OpAnd, ltl.OpOr,
				ltl.OpNext, ltl.OpUntil, ltl.OpRelease:
			case ltl.OpNot:
				if e.Left.Op != ltl.OpAtom {
					t.Fatalf("NNF(%s) contains non-literal negation %s", f, e)
				}
			default:
				t.Fatalf("NNF(%s) contains operator %s", f, e.Op)
			}
		})
	}
}

func TestParseRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := ltltest.Config{Atoms: []string{"p", "q", "r", "s"}, MaxDepth: 6}
	for i := 0; i < 2000; i++ {
		f := ltltest.Expr(rng, cfg)
		printed := f.String()
		g, err := ltl.Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", printed, err)
		}
		if !f.Equal(g) {
			t.Fatalf("round trip changed AST: %s vs %s", printed, g)
		}
	}
}

func TestConjoinAll(t *testing.T) {
	if got := ltl.ConjoinAll(); got.Op != ltl.OpTrue {
		t.Errorf("ConjoinAll() = %s, want true", got)
	}
	p := ltl.Atom("p")
	if got := ltl.ConjoinAll(p); !got.Equal(p) {
		t.Errorf("ConjoinAll(p) = %s, want p", got)
	}
	got := ltl.ConjoinAll(ltl.Atom("p"), ltl.Atom("q"), ltl.Atom("r"))
	want := ltl.MustParse("p && (q && r)")
	if !got.Equal(want) {
		t.Errorf("ConjoinAll(p,q,r) = %s, want %s", got, want)
	}
}

func TestSimplifyReduces(t *testing.T) {
	cases := []struct{ src, want string }{
		{"p && true", "p"},
		{"p && false", "false"},
		{"p || true", "true"},
		{"false || p", "p"},
		{"!!p", "p"},
		{"!true", "false"},
		{"X true", "true"},
		{"F false", "false"},
		{"G true", "true"},
		{"p U true", "true"},
		{"false U p", "p"},
		{"true U p", "F p"},
		{"true R p", "p"},
		{"false R p", "G p"},
		{"p && p", "p"},
		{"p || p", "p"},
		{"true -> p", "p"},
		{"p -> true", "true"},
		{"F F p", "F p"},
		{"G G p", "G p"},
	}
	for _, c := range cases {
		got := ltl.Simplify(ltl.MustParse(c.src))
		want := ltl.MustParse(c.want)
		if !got.Equal(want) {
			t.Errorf("Simplify(%s) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestSize(t *testing.T) {
	if got := ltl.MustParse("G(p -> F q)").Size(); got != 5 {
		t.Errorf("Size = %d, want 5", got)
	}
}
