package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/paperex"
	"contractdb/internal/vocab"
)

func TestRegisterBatch(t *testing.T) {
	db := core.NewDB(paperex.NewVocabulary(), core.Options{})
	specs := []core.Registration{
		{Name: "A", Spec: paperex.TicketA()},
		{Name: "B", Spec: paperex.TicketB()},
		{Name: "bad", Spec: ltl.MustParse("purchase && !purchase")},
		{Name: "C", Spec: paperex.TicketC()},
		{Name: "A", Spec: paperex.TicketA()}, // duplicate
	}
	results := db.RegisterBatch(context.Background(), specs, 4)
	if len(results) != len(specs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, want := range []bool{true, true, false, true, false} {
		if (results[i].Err == nil) != want {
			t.Errorf("entry %d: err=%v, want success=%v", i, results[i].Err, want)
		}
	}
	if !errors.Is(results[4].Err, core.ErrDuplicateName) {
		t.Errorf("duplicate entry: %v, want ErrDuplicateName", results[4].Err)
	}
	if db.Len() != 3 {
		t.Fatalf("database has %d contracts, want 3", db.Len())
	}
	// The batch-registered database answers like a serially built one.
	res, err := db.Query(paperex.QueryMissedRefundOrChange())
	if err != nil {
		t.Fatal(err)
	}
	got := names(res)
	if !got["A"] || !got["B"] || got["C"] {
		t.Errorf("query matched %v, want A and B", got)
	}
}

// TestBatchMatchesSerial: same specs through RegisterBatch and
// Register produce the same Save bytes and identical query answers,
// including a repeated specification under a second name, which the
// batch registers through its structural dedup.
func TestBatchMatchesSerial(t *testing.T) {
	voc1, voc2 := datagen.NewVocabulary(), datagen.NewVocabulary()
	gen1, gen2 := datagen.New(voc1, 31), datagen.New(voc2, 31)
	serial := core.NewDB(voc1, core.Options{})
	batch := core.NewDB(voc2, core.Options{})

	var specs []core.Registration
	var repeat *ltl.Expr
	for i := 0; i < 20; i++ {
		spec := gen1.Specification(4)
		spec2 := gen2.Specification(4)
		if !spec.Equal(spec2) {
			t.Fatal("generators diverged")
		}
		name := fmt.Sprintf("c%02d", i)
		specs = append(specs, core.Registration{Name: name, Spec: spec2})
		if _, err := serial.Register(name, spec); err != nil {
			// The batch must fail on the same entry.
			specs[len(specs)-1].Name = "FAILS:" + name
		} else if repeat == nil {
			repeat = spec
		}
	}
	if _, err := serial.Register("again", repeat); err != nil {
		t.Fatal(err)
	}
	specs = append(specs, core.Registration{Name: "again", Spec: ltl.MustParse(repeat.String())})
	for i, r := range batch.RegisterBatch(context.Background(), specs, 3) {
		if fails := strings.HasPrefix(specs[i].Name, "FAILS:"); (r.Err != nil) != fails {
			t.Errorf("entry %s: err=%v, serial registration failed: %v", specs[i].Name, r.Err, fails)
		}
	}
	if serial.Len() != batch.Len() {
		t.Fatalf("serial has %d, batch has %d contracts", serial.Len(), batch.Len())
	}
	if s, b := saveOf(t, serial), saveOf(t, batch); !bytes.Equal(s, b) {
		t.Fatalf("batch saves %d bytes that differ from serial registration's %d", len(b), len(s))
	}
	qgen := datagen.New(datagen.NewVocabulary(), 131)
	for i := 0; i < 15; i++ {
		q := qgen.Specification(2)
		r1, err := serial.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := batch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Stats.Permitted != r2.Stats.Permitted {
			t.Fatalf("query %s: serial %d matches, batch %d", q, r1.Stats.Permitted, r2.Stats.Permitted)
		}
	}
}

func TestBatchVocabularyGrowth(t *testing.T) {
	db := core.NewDB(paperex.NewVocabulary(), core.Options{})
	results := db.RegisterBatch(context.Background(), []core.Registration{
		{Name: "new-events", Spec: ltl.MustParse("G(premiumPaid -> F claimAccepted)")},
	}, 2)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if _, ok := db.Vocabulary().Lookup("claimAccepted"); !ok {
		t.Error("batch registration must intern new events")
	}
}

// TestBatchVocabularyLimit: an entry whose events overflow the
// vocabulary fails alone, as its Register call would; the rest of the
// batch registers.
func TestBatchVocabularyLimit(t *testing.T) {
	voc := vocab.New()
	for i := 0; i < vocab.MaxEvents-1; i++ {
		if _, err := voc.Add(fmt.Sprintf("e%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	db := core.NewDB(voc, core.Options{})
	results := db.RegisterBatch(context.Background(), []core.Registration{
		{Name: "fits", Spec: ltl.MustParse("F e0")},
		{Name: "overflows", Spec: ltl.MustParse("F x1 && F x2")},
	}, 2)
	if results[0].Err != nil {
		t.Errorf("entry within the vocabulary failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("entry overflowing the vocabulary registered")
	}
	if db.Len() != 1 {
		t.Errorf("database holds %d contracts, want 1", db.Len())
	}
}

func TestBatchGeneratedNames(t *testing.T) {
	db := core.NewDB(paperex.NewVocabulary(), core.Options{})
	results := db.RegisterBatch(context.Background(), []core.Registration{
		{Spec: paperex.TicketA()},
		{Spec: paperex.TicketB()},
	}, 2)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("entry %d: %v", i, r.Err)
		}
		if r.Contract.Name == "" {
			t.Error("generated name missing")
		}
	}
	if results[0].Contract.Name == results[1].Contract.Name {
		t.Error("generated names collide")
	}
}

// TestBatchTotalIsWallClock: a batch charges its own wall clock to
// RegistrationStats.Total, once, not the sum of its workers'
// overlapping prepare times, so a two-worker batch never reads longer
// than the call took. Projections and IndexBuild stay work sums.
func TestBatchTotalIsWallClock(t *testing.T) {
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 5)
	var specs []core.Registration
	for range 24 {
		specs = append(specs, core.Registration{Spec: gen.Specification(3)})
	}
	db := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	start := time.Now()
	db.RegisterBatch(context.Background(), specs, 2)
	wall := time.Since(start)
	rs := db.RegistrationStats()
	if rs.Contracts == 0 || rs.Projections <= 0 {
		t.Fatalf("batch registered nothing: %+v", rs)
	}
	if rs.Total > wall {
		t.Errorf("Total %v exceeds the batch's wall clock %v (projections %v, index %v)", rs.Total, wall, rs.Projections, rs.IndexBuild)
	}
	t.Logf("%d contracts: Total %v, wall %v, projections %v", rs.Contracts, rs.Total, wall, rs.Projections)
}

// TestBatchWorkersClamped: a batch's worker pool never outgrows
// GOMAXPROCS or the batch's distinct specifications, whatever the
// client asks for. A request for 64 workers on a 2-spec batch starts
// at most 2.
func TestBatchWorkersClamped(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ requested, distinct, want int }{
		{64, 2, min(2, procs)},
		{0, 2, min(2, procs)},
		{-3, 1000, procs},
		{1, 1000, 1},
		{64, 0, 0},
		{1 << 30, 1 << 20, procs},
	} {
		if got := core.BatchWorkers(c.requested, c.distinct); got != c.want {
			t.Errorf("BatchWorkers(%d, %d) = %d, want %d", c.requested, c.distinct, got, c.want)
		}
	}
}
