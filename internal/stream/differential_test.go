package stream_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/monitor"
	"contractdb/internal/stream"
	"contractdb/internal/vocab"
)

// TestStreamDifferential pits the compiled flat-array stepper against
// the interpreted monitor.Monitor on randomized contracts and event
// sequences: every verdict — status transition AND the event index it
// fires at — must match the reference exactly, at one shard and at
// several.
func TestStreamDifferential(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runDifferential(t, seed, shards)
			})
		}
	}
}

func runDifferential(t *testing.T, seed int64, shards int) {
	voc := datagen.NewVocabulary()
	db := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	gen := datagen.New(voc, seed)
	var contracts []*core.Contract
	for db.Len() < 10 {
		c, err := db.Register("", gen.Specification(datagen.SimpleContracts.Properties))
		if err != nil {
			continue // unsatisfiable or too large: redraw, like the figure benches
		}
		contracts = append(contracts, c)
	}

	b, err := stream.New(db, stream.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	rng := rand.New(rand.NewSource(seed * 7919))
	names := voc.Names()
	randomSnap := func() vocab.Set {
		var evs []string
		for _, n := range names {
			if rng.Intn(4) == 0 {
				evs = append(evs, n)
			}
		}
		s, err := voc.SetOf(evs...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	ctx := context.Background()
	type testStream struct {
		name      string
		contracts []*core.Contract
		snaps     []vocab.Set
	}
	var streams []testStream
	// One stream per contract plus a few multi-contract streams, with
	// independent random traces of varying length.
	for i, c := range contracts {
		streams = append(streams, testStream{name: fmt.Sprintf("solo-%d", i), contracts: []*core.Contract{c}})
	}
	for i := 0; i+3 <= len(contracts); i += 3 {
		streams = append(streams, testStream{name: fmt.Sprintf("multi-%d", i), contracts: contracts[i : i+3]})
	}
	for si := range streams {
		ts := &streams[si]
		n := 16 + rng.Intn(64)
		for j := 0; j < n; j++ {
			ts.snaps = append(ts.snaps, randomSnap())
		}
		cnames := make([]string, len(ts.contracts))
		for j, c := range ts.contracts {
			cnames[j] = c.Name
		}
		if _, err := b.Create(ctx, ts.name, cnames); err != nil {
			t.Fatal(err)
		}
	}

	// Push each trace in random-sized batches, interleaved across
	// streams so shard workers see mixed traffic.
	pos := make([]int, len(streams))
	for {
		progress := false
		for si := range streams {
			ts := &streams[si]
			if pos[si] >= len(ts.snaps) {
				continue
			}
			progress = true
			n := min(1+rng.Intn(7), len(ts.snaps)-pos[si])
			if _, err := b.Append(ctx, ts.name, ts.snaps[pos[si]:pos[si]+n]); err != nil {
				t.Fatal(err)
			}
			pos[si] += n
		}
		if !progress {
			break
		}
	}
	b.WaitIdle()

	// Reference: an interpreted monitor per (stream, contract), and the
	// exact verdict list the broker should have produced — initial
	// verdicts in attach order, then transitions in (event, attachment)
	// order.
	for _, ts := range streams {
		var want []stream.Verdict
		mons := make([]*monitor.Monitor, len(ts.contracts))
		for i, c := range ts.contracts {
			mons[i] = monitor.New(c.Automaton())
			want = append(want, stream.Verdict{
				Seq:      len(want) + 1,
				Contract: c.Name,
				To:       mons[i].Status().String(),
			})
		}
		for ei, snap := range ts.snaps {
			for i, m := range mons {
				old := m.Status()
				if m.Step(snap) != old {
					want = append(want, stream.Verdict{
						Seq:        len(want) + 1,
						Contract:   ts.contracts[i].Name,
						EventIndex: uint64(ei + 1),
						From:       old.String(),
						To:         m.Status().String(),
					})
				}
			}
		}

		got, err := b.Verdicts(ctx, ts.name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("stream %s: %d verdicts, reference monitor says %d\n got: %+v\nwant: %+v",
				ts.name, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("stream %s: verdict[%d] = %+v, reference says %+v", ts.name, i, got[i], want[i])
			}
		}
		info, err := b.Info(ts.name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Events != uint64(len(ts.snaps)) {
			t.Errorf("stream %s: consumed %d events, pushed %d", ts.name, info.Events, len(ts.snaps))
		}
		for i, m := range mons {
			if info.Statuses[i] != m.Status().String() {
				t.Errorf("stream %s: final status[%d] = %s, reference says %s",
					ts.name, i, info.Statuses[i], m.Status())
			}
		}
	}
}
