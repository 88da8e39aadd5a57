package shard_test

import (
	"bytes"
	"fmt"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/shard"
)

// TestPipelinedShardDifferential: with the ingest pipeline on, every
// shard count must give the synchronous unsharded oracle's answers —
// both inside the degraded window (projections still pending) and
// after the pipelines drain — and the Save bytes must be identical
// across shard counts (Save drains every shard first, so no explicit
// WaitIdle is needed before comparing).
func TestPipelinedShardDifferential(t *testing.T) {
	const nContracts = 24
	voc := datagen.NewVocabulary()
	base := core.Options{MaxAutomatonStates: 300}

	// Satisfiable corpus, drawn once; explicit names keep the engines
	// aligned (auto-minting advances on rejected draws).
	scratch := core.NewDB(voc, base)
	gen := datagen.New(voc, 91)
	var specs []*ltl.Expr
	for scratch.Len() < nContracts {
		q := gen.Specification(3)
		if _, err := scratch.Register("", q); err != nil {
			continue
		}
		specs = append(specs, q)
	}
	regs := make([]core.Registration, len(specs))
	for i, q := range specs {
		regs[i] = core.Registration{Name: fmt.Sprintf("c%03d", i), Spec: q}
	}

	oracle := core.NewDB(voc, base)
	for _, r := range regs {
		if _, err := oracle.Register(r.Name, r.Spec); err != nil {
			t.Fatal(err)
		}
	}

	pipelined := base
	pipelined.IngestWorkers = 4
	shardCounts := []int{1, 2, 4}
	sharded := make([]*shard.DB, len(shardCounts))
	for i, n := range shardCounts {
		sdb, err := shard.New(voc, pipelined, n)
		if err != nil {
			t.Fatal(err)
		}
		defer sdb.Close()
		sharded[i] = sdb
		// First half through the batch path, second half through the
		// pipelined single-register path — both must land in the same
		// place.
		half := len(regs) / 2
		for _, res := range sdb.RegisterBatch(regs[:half], 2) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		for _, r := range regs[half:] {
			if _, err := sdb.Register(r.Name, r.Spec); err != nil {
				t.Fatal(err)
			}
		}
	}

	qgen := datagen.New(voc, 17)
	queries := make([]*ltl.Expr, 10)
	for i := range queries {
		queries[i] = qgen.Specification(2)
	}
	modes := []core.Mode{
		{},
		{Prefilter: true},
		{Prefilter: true, Bisim: true, NoCache: true},
		core.Optimized,
	}
	compare := func(label string) {
		for qi, q := range queries {
			for mi, mode := range modes {
				want, err := oracle.QueryMode(q, mode)
				if err != nil {
					t.Fatal(err)
				}
				for i, sdb := range sharded {
					got, err := sdb.QueryMode(q, mode)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := fmt.Sprint(resultNames(got)), fmt.Sprint(resultNames(want)); g != w {
						t.Fatalf("%s: query %d mode %d: %d-shard %s != oracle %s",
							label, qi, mi, shardCounts[i], g, w)
					}
				}
			}
		}
	}

	// Inside the degraded window: the second half of the corpus may
	// still be at the prefilter-only tier. Answers must already agree.
	compare("degraded window")

	for _, sdb := range sharded {
		sdb.WaitIdle()
		rs := sdb.RegistrationStats()
		if rs.Degraded != 0 || rs.PendingIngest != 0 {
			t.Fatalf("pipeline not drained after WaitIdle: %+v", rs)
		}
	}
	compare("post-promotion")

	// Save bytes must depend on neither the shard count nor whether
	// registration went through the pipeline.
	var first []byte
	for i, sdb := range sharded {
		var buf bytes.Buffer
		if err := sdb.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("Save bytes differ under pipelined registration: 1-shard wrote %d bytes, %d-shard wrote %d",
				len(first), shardCounts[i], buf.Len())
		}
	}
}
