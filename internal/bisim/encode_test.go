package bisim_test

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/vocab"
)

// TestQuotientDerivationMatchesCompile: the quotient automata a
// ProjectionSet hands out carry a compiled form derived from the
// parent's CSR rows, not flattened — this pins the derivation to the
// ground truth by re-flattening each quotient from scratch, and by
// flattening the quotient Quotient builds edge by edge from the
// parent's pointer adjacency, requiring bit-identical results.
func TestQuotientDerivationMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	voc := vocab.MustFromNames("a", "b", "c", "d")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 4}
	keeps := [][]string{{"a"}, {"b"}, {"a", "b"}, {"a", "c"}, {"c", "d"}}
	for i := 0; i < 60; i++ {
		a, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		ps := bisim.Precompute(a, 2)
		for _, names := range keeps {
			keep, _ := voc.SetOf(names...)
			q := ps.For(keep)
			if q == a {
				continue // full-event subset: served by the parent itself
			}
			derived := q.Compiled()
			if fresh := buchi.Compile(q); !reflect.DeepEqual(derived, fresh) {
				t.Fatalf("derived compiled form for %v diverges from Compile:\n got %+v\nwant %+v",
					names, derived, fresh)
			}
			relevant := keep.Intersect(a.Events).Intersect(ps.LabelEvents())
			built := bisim.Quotient(a, bisim.CoarsestProjected(a, relevant), relevant)
			if fresh := buchi.Compile(built); !reflect.DeepEqual(derived, fresh) {
				t.Fatalf("derived compiled form for %v diverges from the edge-by-edge quotient:\n got %+v\nwant %+v",
					names, derived, fresh)
			}
		}
	}
}

// TestProjectionSnapshotRoundTrip: Export → gob → ImportProjections
// reproduces the projection set — every subset's derived quotient
// accepts the same lassos as the original's — and re-exporting yields
// byte-identical snapshots regardless of what the runtime cache held.
func TestProjectionSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	voc := vocab.MustFromNames("a", "b", "c", "d")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 4}
	for i := 0; i < 40; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		ps := bisim.Precompute(a, 2)
		snap := ps.Export()

		var wire bytes.Buffer
		if err := gob.NewEncoder(&wire).Encode(snap); err != nil {
			t.Fatal(err)
		}
		wireBytes := append([]byte(nil), wire.Bytes()...)
		var decoded bisim.ProjectionSnapshot
		if err := gob.NewDecoder(&wire).Decode(&decoded); err != nil {
			t.Fatal(err)
		}

		// A second translation of the same formula is the same automaton
		// (translation is deterministic) — the import target, as Load
		// would hold it.
		a2, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		ps2, err := bisim.ImportProjections(a2, decoded)
		if err != nil {
			t.Fatal(err)
		}

		// Language differential between original and imported quotients.
		for _, entry := range decoded.Parts {
			q1, q2 := ps.For(entry.Set), ps2.For(entry.Set)
			for j := 0; j < 10; j++ {
				run := ltltest.Lasso(rng, 4, 3, 3)
				if q1.AcceptsLasso(run) != q2.AcceptsLasso(run) {
					t.Fatalf("imported quotient for %s changed the language of BA(%s)", entry.Set, f)
				}
			}
		}

		// Export is cache-independent: the imported set re-exports to the
		// same bytes even though its runtime cache is now populated.
		var rewire bytes.Buffer
		if err := gob.NewEncoder(&rewire).Encode(ps2.Export()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wireBytes, rewire.Bytes()) {
			t.Fatalf("re-export after import changed the snapshot bytes for BA(%s) (%d vs %d)",
				f, len(wireBytes), rewire.Len())
		}
	}
}
