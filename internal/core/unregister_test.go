package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
)

// TestUnregisterDifferential removes half the contracts from a
// populated database and checks, for a spread of generated queries in
// both modes, that it answers exactly like a database that never held
// the removed contracts — i.e. the prefilter postings and projection
// partitions really are gone, not just the name.
func TestUnregisterDifferential(t *testing.T) {
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 5)
	var specs []*ltl.Expr
	for len(specs) < 20 {
		specs = append(specs, gen.Specification(3))
	}

	full := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	for i, s := range specs {
		if _, err := full.Register(fmt.Sprintf("c%02d", i), s); err != nil {
			specs[i] = nil // unregisterable (unsatisfiable/oversized); skip below too
		}
	}
	// Remove the odd-numbered survivors.
	removed := map[int]bool{}
	for i := range specs {
		if specs[i] == nil {
			continue
		}
		if i%2 == 1 {
			if err := full.Unregister(fmt.Sprintf("c%02d", i)); err != nil {
				t.Fatalf("unregister c%02d: %v", i, err)
			}
			removed[i] = true
		}
	}

	// The oracle registers only what survived.
	oracle := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	for i, s := range specs {
		if s == nil || removed[i] {
			continue
		}
		if _, err := oracle.Register(fmt.Sprintf("c%02d", i), s); err != nil {
			t.Fatalf("oracle register: %v", err)
		}
	}
	if full.Len() != oracle.Len() {
		t.Fatalf("sizes diverge: %d vs %d", full.Len(), oracle.Len())
	}

	qgen := datagen.New(voc, 99)
	for q := 0; q < 15; q++ {
		query := qgen.Specification(1 + q%3)
		for _, mode := range []core.Mode{core.Optimized, core.Unoptimized} {
			mode.NoCache = true
			got, err1 := full.QueryMode(query, mode)
			want, err2 := oracle.QueryMode(query, mode)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("query %d: errors diverge: %v vs %v", q, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("query %d mode %+v: %d matches vs oracle %d", q, mode, len(got.Matches), len(want.Matches))
			}
			for i := range got.Matches {
				if got.Matches[i].Name != want.Matches[i].Name {
					t.Fatalf("query %d: match %d is %q, oracle says %q", q, i, got.Matches[i].Name, want.Matches[i].Name)
				}
			}
		}
	}

	// The pruned database serializes exactly like one that never held
	// the removed contracts — same ids, same index, same partitions.
	var a, b bytes.Buffer
	if err := full.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("unregistered database serializes differently from a never-registered one")
	}
}

func TestUnregisterNotFound(t *testing.T) {
	db := core.NewDB(datagen.NewVocabulary(), core.Options{})
	err := db.Unregister("ghost")
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

// TestUnregisterInvalidatesCache: a query whose automaton the compile
// cache already holds, asked again after an unregister, no longer
// returns the removed contract.
func TestUnregisterInvalidatesCache(t *testing.T) {
	db := core.NewDB(datagen.NewVocabulary(), core.Options{})
	if _, err := db.RegisterLTL("keep", "G(p1 -> F p2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RegisterLTL("drop", "G(p1 -> F p2)"); err != nil {
		t.Fatal(err)
	}

	res, err := db.QueryLTL("F p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("warmup query matched %d, want 2", len(res.Matches))
	}
	if err := db.Unregister("drop"); err != nil {
		t.Fatal(err)
	}
	res, err = db.QueryLTL("F p1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CompileHit {
		t.Fatal("repeat query did not reuse the compiled automaton")
	}
	if len(res.Matches) != 1 || res.Matches[0].Name != "keep" {
		t.Fatalf("after unregister: %d matches", len(res.Matches))
	}
}

// TestUnregisterThenAnonymousRegister: generated names never collide
// with survivors after removals shrink the database.
func TestUnregisterThenAnonymousRegister(t *testing.T) {
	db := core.NewDB(datagen.NewVocabulary(), core.Options{})
	for i := 0; i < 3; i++ {
		if _, err := db.RegisterLTL("", "G(!p3)"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Unregister("contract-0"); err != nil {
		t.Fatal(err)
	}
	c, err := db.RegisterLTL("", "G(!p3)")
	if err != nil {
		t.Fatalf("anonymous register after unregister: %v", err)
	}
	if _, ok := db.ByName(c.Name); !ok {
		t.Fatalf("generated name %q not registered", c.Name)
	}
	if db.Len() != 3 {
		t.Fatalf("len = %d, want 3", db.Len())
	}
}
