package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/store"
	"contractdb/internal/vocab"
)

// TestDeferredWALReplayPromotes: builds with a background registration
// pipeline logged a register record before the projection precompute
// ran (a Deferred record, committed as core's
// register-v4-deferred.rec). A data directory whose WAL holds one still
// opens: replay runs the precompute inline, the contract is served at
// the full tier, and the recovered state is the one a synchronous
// registration of the record's own automaton builds — same answers,
// same bytes, also after a clean reopen. The reference does not
// retranslate the specification: the record keeps the automaton of the
// translator that wrote it.
func TestDeferredWALReplayPromotes(t *testing.T) {
	rec, err := os.ReadFile(filepath.Join("..", "core", "testdata", "register-v4-deferred.rec"))
	if err != nil {
		t.Fatal(err)
	}
	const name = "NoRefundsAfterUse"
	cfg := store.Config{Events: []string{"purchase", "use", "refund", "dateChange"}}

	// Append the record the way such a build's Register did, then crash:
	// the store never applies it itself, and no checkpoint covers it.
	dir := t.TempDir()
	st := openStore(t, dir, cfg)
	if err := st.LogRegister(rec); err != nil {
		t.Fatal(err)
	}
	crash := t.TempDir()
	copyDir(t, dir, crash)

	// The reference registers the record's automaton synchronously. An
	// unsharded database saves the bytes a store's router does.
	stored := core.NewDB(vocab.MustFromNames(cfg.Events...), cfg.Core)
	if err := core.ApplyRegistrationTo(rec, func(string) *core.DB { return stored }, nil); err != nil {
		t.Fatal(err)
	}
	c, ok := stored.ByName(name)
	if !ok {
		t.Fatal("the deferred record holds no contract")
	}
	ref := core.NewDB(vocab.MustFromNames(cfg.Events...), cfg.Core)
	if _, err := ref.RegisterAutomaton(name, c.Spec, c.Automaton().Clone()); err != nil {
		t.Fatal(err)
	}
	var refSave bytes.Buffer
	if err := ref.Save(&refSave); err != nil {
		t.Fatal(err)
	}
	want := refSave.Bytes()

	st2 := openStore(t, crash, cfg)
	if st2.Recovery.ReplayedRecords != 1 {
		t.Errorf("replayed %d records, want 1", st2.Recovery.ReplayedRecords)
	}
	c, ok = st2.DB().ByName(name)
	if !ok {
		t.Fatal("the deferred record installed no contract")
	}
	if distinct, subsets := c.ProjectionStats(); distinct == 0 || subsets == 0 {
		t.Errorf("recovered contract has %d partitions over %d subsets; want its projections precomputed", distinct, subsets)
	}
	for _, q := range []string{"F refund", "F purchase", "G !refund", "F (use && F refund)", "purchase U refund"} {
		got, err := st2.DB().QueryLTL(q)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := ref.QueryLTL(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(matchNames(got), matchNames(exp)) {
			t.Errorf("query %q: recovered %v, synchronous %v", q, matchNames(got), matchNames(exp))
		}
	}
	if got := saveBytes(t, st2.DB()); !bytes.Equal(got, want) {
		t.Error("state recovered from a deferred WAL record differs from a synchronous registration")
	}

	// A clean shutdown checkpoints the recovered state; the reopen
	// replays nothing and holds the same bytes.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openStore(t, crash, cfg)
	if !st3.Recovery.Clean {
		t.Errorf("reopen after recovered clean shutdown not clean: %+v", st3.Recovery)
	}
	if got := saveBytes(t, st3.DB()); !bytes.Equal(got, want) {
		t.Error("state diverged across recover + clean shutdown")
	}
}

func matchNames(r *core.Result) []string {
	var out []string
	for _, c := range r.Matches {
		out = append(out, c.Name)
	}
	return out
}
