package core_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/ltl"
	"contractdb/internal/vocab"
)

// TestQueriesDoNotGrowVocabulary: queries citing events the database
// has never registered are refused by name, and leave the shared
// vocabulary and the Save bytes as they found them, whichever path
// asks: permission and obligation, cached and uncached, and Explain.
// Seventy such queries would overrun the 64-event vocabulary of a
// two-event database if queries interned their atoms; afterwards a
// registration citing a new event still succeeds.
func TestQueriesDoNotGrowVocabulary(t *testing.T) {
	db := core.NewDB(vocab.MustFromNames("purchase", "refund"), core.Options{})
	if _, err := db.Register("Flexible", ltl.MustParse("G(purchase -> F refund)")); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := db.Save(&before); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nocache := core.Optimized
	nocache.NoCache = true
	for i := range 70 {
		spec := ltl.MustParse(fmt.Sprintf("F zz%d && F purchase", i))
		want := fmt.Sprintf("vocab: unknown event %q", fmt.Sprintf("zz%d", i))
		var err error
		switch i % 4 {
		case 0:
			_, err = db.QueryModeCtx(ctx, spec, core.Optimized)
		case 1:
			_, err = db.QueryObligationModeCtx(ctx, spec, core.Optimized)
		case 2:
			_, err = db.QueryModeCtx(ctx, spec, nocache)
		case 3:
			_, _, err = db.Explain(ctx, "Flexible", spec)
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("query %d: got error %v, want one naming %s", i, err, want)
		}
	}
	if got := db.Vocabulary().Len(); got != 2 {
		t.Fatalf("vocabulary holds %d events after the queries, want 2: %v", got, db.Vocabulary().Names())
	}
	var after bytes.Buffer
	if err := db.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("the queries changed the Save bytes")
	}
	if _, err := db.Register("Upgradable", ltl.MustParse("G(purchase -> F upgrade)")); err != nil {
		t.Fatalf("registration citing a new event: %v", err)
	}
	res, err := db.QueryModeCtx(ctx, ltl.MustParse("F upgrade"), core.Optimized)
	if err != nil {
		t.Fatalf("query citing the newly registered event: %v", err)
	}
	// Flexible cites no upgrade, so by Definition 1(b) it cannot permit one.
	if len(res.Matches) != 1 || res.Matches[0].Name != "Upgradable" {
		t.Fatalf("F upgrade matched %v, want Upgradable alone", names(res))
	}
}
