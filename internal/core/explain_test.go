package core_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/ltltest"
	"contractdb/internal/paperex"
	"contractdb/internal/vocab"
)

func TestExplainPaperExample(t *testing.T) {
	db := newPaperDB(t)
	// Ticket B permits Q3 through the refund disjunct; the witness must
	// actually satisfy both the query and Ticket B's specification.
	w, ok, err := db.Explain(context.Background(), "TicketB", paperex.QueryQ3())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Ticket B permits Q3; a witness must exist")
	}
	voc := db.Vocabulary()
	if !w.Run.Eval(voc, paperex.QueryQ3()) {
		t.Errorf("witness does not satisfy the query: %v / %v", w.Run.Prefix, w.Run.Cycle)
	}
	if !w.Run.Eval(voc, paperex.TicketB()) {
		t.Errorf("witness is not allowed by Ticket B: %v / %v", w.Run.Prefix, w.Run.Cycle)
	}
	// Condition (b) of Definition 1: only cited events appear.
	cited, _ := db.ByName("TicketB")
	for _, s := range append(append([]vocab.Set{}, w.Run.Prefix...), w.Run.Cycle...) {
		if !s.SubsetOf(cited.Events()) {
			t.Errorf("witness uses events outside the contract vocabulary: %s", s.Format(voc))
		}
	}
	if !strings.Contains(w.Format(voc), "witness for TicketB") {
		t.Error("Format output missing header")
	}
}

func TestExplainDenied(t *testing.T) {
	db := newPaperDB(t)
	// Ticket C does not permit the missed-flight query: no witness.
	if _, ok, err := db.Explain(context.Background(), "TicketC", paperex.QueryMissedRefundOrChange()); err != nil || ok {
		t.Errorf("Ticket C must have no witness (ok=%v err=%v)", ok, err)
	}
	if _, _, err := db.Explain(context.Background(), "nope", paperex.QueryQ3()); err == nil {
		t.Error("unknown contract must error")
	}
	if _, _, err := db.ExplainLTL(context.Background(), "TicketA", ")("); err == nil {
		t.Error("bad query syntax must error")
	}
}

// TestExplainAgreesWithQuery: a witness exists exactly when the query
// pipeline reports a match, and every witness satisfies both formulas.
func TestExplainAgreesWithQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	voc := datagen.NewVocabulary()
	db := core.NewDB(voc, core.Options{})
	specs := map[string]*specHolder{}
	gen := datagen.New(voc, 23)
	for db.Len() < 12 {
		spec := gen.Specification(4)
		c, err := db.Register("", spec)
		if err != nil {
			continue
		}
		specs[c.Name] = &specHolder{spec: spec}
	}
	cfg := ltltest.Config{Atoms: voc.Names()[:5], MaxDepth: 3}
	for i := 0; i < 20; i++ {
		q := ltltest.Expr(rng, cfg)
		res, err := db.QueryMode(q, core.Unoptimized)
		if err != nil {
			t.Fatal(err)
		}
		matched := map[string]bool{}
		for _, c := range res.Matches {
			matched[c.Name] = true
		}
		for name, holder := range specs {
			w, ok, err := db.Explain(context.Background(), name, q)
			if err != nil {
				t.Fatal(err)
			}
			if ok != matched[name] {
				t.Fatalf("Explain(%s) ok=%v but query match=%v for %s", name, ok, matched[name], q)
			}
			if ok {
				if !w.Run.Eval(voc, q) {
					t.Fatalf("witness for %s does not satisfy query %s", name, q)
				}
				if !w.Run.Eval(voc, holder.spec) {
					t.Fatalf("witness for %s not allowed by its own contract", name)
				}
			}
		}
	}
}

type specHolder struct{ spec *ltl.Expr }
