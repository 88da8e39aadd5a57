package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/monitor"
	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
	"contractdb/internal/wal"
)

// state captures the broker's checkpointable state in stream-name
// order.
func state(b *Broker) generation {
	gen := b.capture()
	sort.Slice(gen.streams, func(i, j int) bool { return gen.streams[i].name < gen.streams[j].name })
	return gen
}

// encodeLegacyGeneration is the checkpoint encoder of earlier builds:
// a gob snapshotFile of format 1, streams in name order. Recovery
// still reads it.
func encodeLegacyGeneration(w io.Writer, boundary uint64, gen generation) error {
	snap := snapshotFile{Format: legacyFormat, Boundary: boundary}
	for _, ss := range gen.streams {
		s := streamSnap{Name: ss.name, Events: ss.events, Verdicts: ss.verdicts}
		words := ss.frontiers
		for _, a := range ss.atts {
			n := wordsFor(a.states)
			s.Contracts = append(s.Contracts, a.contract)
			s.States = append(s.States, a.states)
			s.Frontiers = append(s.Frontiers, words[:n])
			s.Statuses = append(s.Statuses, int(a.status))
			words = words[n:]
		}
		snap.Streams = append(snap.Streams, s)
	}
	sort.Slice(snap.Streams, func(i, j int) bool { return snap.Streams[i].Name < snap.Streams[j].Name })
	return gob.NewEncoder(w).Encode(snap)
}

// checkpointDB registers three contracts: NoRefund is violated by a
// refund, UseThenPay by a use not followed by a pay, and PayBeforeUse
// is never violated.
func checkpointDB(tb testing.TB) *core.DB {
	tb.Helper()
	voc := vocab.MustFromNames("pay", "use", "refund", "change")
	db := core.NewDB(voc, core.Options{})
	for _, c := range []struct{ name, spec string }{
		{"NoRefund", "G !refund"},
		{"PayBeforeUse", "G(use -> F pay)"},
		{"UseThenPay", "G(use -> X pay)"},
	} {
		if _, err := db.RegisterLTL(c.name, c.spec); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// checkpointOps drives a deterministic mix of creates, pushes and
// deletes through the broker, calling between after each round. Its
// stream names start with tag.
func checkpointOps(tb testing.TB, b *Broker, tag string, rounds int, between func(round int)) {
	tb.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	pairs := [][]string{{"NoRefund", "UseThenPay"}, {"PayBeforeUse", "NoRefund"}, {"UseThenPay"}}
	events := []string{"pay", "use", "refund", "change"}
	for round := 0; round < rounds; round++ {
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("%s%03d-%d-%d", tag, rng.Intn(1000), round, i)
			if _, err := b.Create(ctx, name, pairs[rng.Intn(len(pairs))]); err != nil {
				tb.Fatal(err)
			}
		}
		for _, in := range b.List() {
			if rng.Intn(8) == 0 {
				if err := b.Delete(ctx, in.Name); err != nil {
					tb.Fatal(err)
				}
				continue
			}
			batch := make([][]string, 1+rng.Intn(5))
			for k := range batch {
				for _, e := range events {
					if rng.Intn(7) == 0 {
						batch[k] = append(batch[k], e)
					}
				}
			}
			if _, err := b.AppendEvents(ctx, in.Name, batch); err != nil {
				tb.Fatal(err)
			}
		}
		b.WaitIdle()
		between(round)
	}
}

// observed is what a client can see of a broker, plus its frontiers.
type observed struct {
	List     []Info
	Verdicts map[string][]Verdict
	State    generation
}

func observe(t *testing.T, b *Broker) observed {
	t.Helper()
	o := observed{List: b.List(), Verdicts: map[string][]Verdict{}, State: state(b)}
	for _, in := range o.List {
		vs, err := b.Verdicts(context.Background(), in.Name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		o.Verdicts[in.Name] = vs
	}
	return o
}

// TestStatusNamesMatchMonitor: the e2ebench oracle compares the
// broker's statuses with monitor.Status by name, and format-1
// generations stored monitor's codes, so the two tables must agree.
func TestStatusNamesMatchMonitor(t *testing.T) {
	for _, pair := range []struct {
		s Status
		m monitor.Status
	}{{Compliant, monitor.Compliant}, {Doomed, monitor.Doomed}, {Violated, monitor.Violated}} {
		if int(pair.s) != int(pair.m) || pair.s.String() != pair.m.String() {
			t.Errorf("stream status %d %q, monitor status %d %q", pair.s, pair.s, pair.m, pair.m)
		}
	}
	if numStatuses != 3 {
		t.Errorf("stream has %d statuses, monitor 3", numStatuses)
	}
}

// TestCheckpointRoundTrip: streams, frontiers and whole verdict
// histories come back equal from a generation, across a clean close
// (nothing replayed) and across a crash (the generation plus the WAL
// suffix).
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := checkpointDB(t)
	b, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, crash := range []bool{false, true} {
		checkpointOps(t, b, fmt.Sprint(crash), 4, func(round int) {
			if round == 1 {
				if _, err := b.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		})
		want := observe(t, b)
		if len(want.List) < 12 || len(want.State.streams) != len(want.List) {
			t.Fatalf("workload left %d streams", len(want.List))
		}
		if crash {
			b.crash()
		} else if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if b, err = New(db, durableCfg(dir)); err != nil {
			t.Fatal(err)
		}
		if b.Recovery.SnapshotPath == "" || b.Recovery.Clean == crash || len(b.Recovery.SkippedSnapshots) != 0 {
			t.Fatalf("crash=%v: recovery = %+v", crash, b.Recovery)
		}
		if got := observe(t, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("crash=%v: recovered\n%+v\nwant\n%+v", crash, got, want)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRacesVerdicts: checkpoints encode verdict histories
// they captured by reference while workers go on appending verdicts to
// the same streams; the last generation still recovers the final
// state.
func TestCheckpointRacesVerdicts(t *testing.T) {
	dir := t.TempDir()
	db := checkpointDB(t)
	cfg := durableCfg(dir)
	cfg.Sync = wal.SyncNever
	b, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("p%d-%05d", p, i)
				if _, err := b.Create(ctx, name, []string{"NoRefund", "UseThenPay"}); err != nil {
					t.Error(err)
					return
				}
				for _, batch := range [][][]string{{{"use"}}, {{"change"}}, {{"refund"}}} {
					if _, err := b.AppendEvents(ctx, name, batch); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	b.WaitIdle()
	want := observe(t, b)
	if len(want.List) == 0 {
		t.Fatal("no stream was created while checkpoints ran")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err = New(db, cfg); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := observe(t, b); !b.Recovery.Clean || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery %+v: state differs after checkpoints raced verdicts", b.Recovery)
	}
}

// TestCheckpointBytesDeterministic: a generation's bytes depend only on
// the broker's state, so the same operations at one and at two shards
// write identical generations under identical names.
func TestCheckpointBytesDeterministic(t *testing.T) {
	db := checkpointDB(t)
	generations := func(shards int) map[string][]byte {
		dir := t.TempDir()
		cfg := durableCfg(dir)
		cfg.Shards = shards
		b, err := New(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkpointOps(t, b, "s", 3, func(int) {
			if _, err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, p := range snapshotFiles(t, dir) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !snapfmt.Sniff(data) {
				t.Fatalf("%s is not a snapfmt container", p)
			}
			out[filepath.Base(p)] = data
		}
		return out
	}
	one, two := generations(1), generations(2)
	if len(one) != 2 {
		t.Fatalf("%d generations retained, want 2", len(one))
	}
	for name, data := range one {
		if !bytes.Equal(two[name], data) {
			t.Errorf("%s: %d bytes at one shard, %d at two, not identical", name, len(data), len(two[name]))
		}
	}
}

// TestLegacyCheckpointRecovers: a format-1 gob generation, written by
// earlier builds' encoder, recovers to the state it was written from,
// alone and with a WAL suffix past it, and the next checkpoint writes
// a container.
func TestLegacyCheckpointRecovers(t *testing.T) {
	dir := t.TempDir()
	db := checkpointDB(t)
	b, err := New(db, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	checkpointOps(t, b, "s", 3, func(int) {})
	want := observe(t, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Replace the generations with one gob generation of the same state
	// at the newest boundary.
	paths := snapshotFiles(t, dir)
	newest := paths[len(paths)-1]
	var boundary uint64
	if _, err := fmt.Sscanf(filepath.Base(newest), "streams-%d.snap", &boundary); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	var legacy bytes.Buffer
	if err := encodeLegacyGeneration(&legacy, boundary, want.State); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	reopen := func(clean bool) *Broker {
		t.Helper()
		b, err := New(db, durableCfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		if b.Recovery.SnapshotPath != newest || b.Recovery.Clean != clean || len(b.Recovery.SkippedSnapshots) != 0 {
			t.Fatalf("recovery = %+v, want %s loaded (clean %v)", b.Recovery, newest, clean)
		}
		return b
	}
	b = reopen(true)
	if got := observe(t, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered from the gob generation\n%+v\nwant\n%+v", got, want)
	}
	checkpointOps(t, b, "t", 1, func(int) {})
	want = observe(t, b)
	b.crash()
	b = reopen(false)
	if got := observe(t, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered from the gob generation and the WAL\n%+v\nwant\n%+v", got, want)
	}
	if _, err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	paths = snapshotFiles(t, dir)
	data, err := os.ReadFile(paths[len(paths)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !snapfmt.Sniff(data) {
		t.Fatalf("the checkpoint after a gob recovery wrote %d bytes that are not a container", len(data))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// badGenerations returns generations that must be refused, by name:
// the gob mutations that panicked or corrupted recovery in earlier
// builds, and damaged containers.
func badGenerations(tb testing.TB, db *core.DB) map[string][]byte {
	tb.Helper()
	base := sampleGeneration(tb, db)
	mutate := func(f func(*generation)) generation {
		gen := generation{streams: append([]streamState(nil), base.streams...)}
		ss := &gen.streams[0]
		ss.atts = append([]attState(nil), ss.atts...)
		ss.frontiers = append([]uint64(nil), ss.frontiers...)
		f(&gen)
		return gen
	}
	gobOf := func(gen generation, edit func(*snapshotFile)) []byte {
		var buf bytes.Buffer
		if err := encodeLegacyGeneration(&buf, 9, gen); err != nil {
			tb.Fatal(err)
		}
		if edit == nil {
			return buf.Bytes()
		}
		var snap snapshotFile
		if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
			tb.Fatal(err)
		}
		edit(&snap)
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	containerOf := func(gen generation) []byte {
		var buf bytes.Buffer
		if err := gen.write(&buf, 9); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	status7 := mutate(func(g *generation) { g.streams[0].atts[0].status = 7 })
	// The first stream's first attachment has two states, so bit 63
	// names none.
	bit63 := mutate(func(g *generation) { g.streams[0].frontiers[0] |= 1 << 63 })
	crc := containerOf(base)
	flipStreamsByte(tb, crc)
	cut := containerOf(base)
	cut = cut[:len(cut)/2]
	// The head ends with the boundary; a damaged one fails the head
	// checksum.
	head := containerOf(base)
	head[24+binary.LittleEndian.Uint64(head[16:])-1] ^= 1
	return map[string][]byte{
		"gob short statuses": gobOf(base, func(s *snapshotFile) { s.Streams[0].Statuses = s.Streams[0].Statuses[:1] }),
		"gob status 7":       gobOf(status7, nil),
		"gob bit 63":         gobOf(bit63, nil),
		"gob unknown status": gobOf(base, func(s *snapshotFile) { s.Streams[0].Verdicts[0].To = "bogus" }),
		"gob format 2":       gobOf(base, func(s *snapshotFile) { s.Format = generationFormat }),
		"container status 7": containerOf(status7),
		"container bit 63":   containerOf(bit63),
		"container crc":      crc,
		"container cut":      cut,
		"container head":     head,
		"torn":               []byte("torn"),
	}
}

// flipStreamsByte flips a bit in the middle of a container's streams
// section, as a damaged disk block would.
func flipStreamsByte(tb testing.TB, data []byte) {
	tb.Helper()
	f, err := snapfmt.Parse(data)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range f.Sections {
		if s.Kind == secStreams {
			data[s.Off+s.Len/2] ^= 1
			return
		}
	}
	tb.Fatal("no streams section")
}

// sampleGeneration is a small valid generation over checkpointDB's
// contracts: the first stream's first attachment is UseThenPay, whose
// automaton has two states.
func sampleGeneration(tb testing.TB, db *core.DB) generation {
	tb.Helper()
	b, err := New(db, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	defer b.Close()
	ctx := context.Background()
	for _, c := range []struct {
		name      string
		contracts []string
		events    [][]string
	}{
		{"a", []string{"UseThenPay", "NoRefund"}, [][]string{{"use"}, {"pay"}, {"use", "change"}}},
		{"b", []string{"PayBeforeUse", "NoRefund"}, [][]string{{"use"}, {"refund"}}},
	} {
		if _, err := b.Create(ctx, c.name, c.contracts); err != nil {
			tb.Fatal(err)
		}
		if _, err := b.AppendEvents(ctx, c.name, c.events); err != nil {
			tb.Fatal(err)
		}
	}
	b.WaitIdle()
	gen := state(b)
	if n := gen.streams[0].atts[0].states; n != 2 {
		tb.Fatalf("UseThenPay has %d states, want 2", n)
	}
	return gen
}

// TestBadCheckpointRefused: a damaged or inconsistent generation of
// either format is refused whole with ErrCorruptCheckpoint, leaving
// the broker empty; through the journal, recovery then falls back to
// the older generation.
func TestBadCheckpointRefused(t *testing.T) {
	db := checkpointDB(t)
	for name, data := range badGenerations(t, db) {
		b, err := New(db, Config{})
		if err != nil {
			t.Fatal(err)
		}
		err = b.loadGeneration(data)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: load = %v, want %v", name, err, ErrCorruptCheckpoint)
		}
		if n := len(b.List()); n != 0 {
			t.Errorf("%s: the refused generation restored %d streams", name, n)
		}
		b.Close()
	}

	dir := t.TempDir()
	want := checkpointedDir(t, journalDB(t), dir)
	paths := snapshotFiles(t, dir)
	newest := paths[len(paths)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	flipStreamsByte(t, data)
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := New(journalDB(t), durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Recovery.SnapshotPath != paths[0] || len(b.Recovery.SkippedSnapshots) != 1 {
		t.Fatalf("recovery = %+v, want %s skipped for %s", b.Recovery, newest, paths[0])
	}
	if got, err := b.Verdicts(context.Background(), "s", 0, 0); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts after falling back = %+v (%v), want %+v", got, err, want)
	}
}

var benchGeneration generation

// BenchmarkStreamCheckpoint prices a checkpoint of 2,000 streams with
// two attachments each and about 8,000 verdicts: the capture that runs
// with intake stopped, capture plus encoding, and decoding plus
// restoring into an empty broker.
func BenchmarkStreamCheckpoint(bm *testing.B) {
	db := checkpointDB(bm)
	b, err := New(db, Config{Shards: 2})
	if err != nil {
		bm.Fatal(err)
	}
	defer b.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	events := []string{"pay", "use", "refund", "change"}
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("stream-%04d", i)
		if _, err := b.Create(ctx, name, []string{"NoRefund", "UseThenPay"}); err != nil {
			bm.Fatal(err)
		}
		batch := make([][]string, 32)
		for k := range batch {
			if e := rng.Intn(10); e < len(events) {
				batch[k] = []string{events[e]}
			}
		}
		if _, err := b.AppendEvents(ctx, name, batch); err != nil {
			bm.Fatal(err)
		}
	}
	b.WaitIdle()
	var data bytes.Buffer
	if err := b.capture().write(&data, 1); err != nil {
		bm.Fatal(err)
	}
	verdicts := 0
	for _, in := range b.List() {
		verdicts += in.Verdicts
	}

	bm.Run("capture", func(bm *testing.B) {
		bm.ReportAllocs()
		for bm.Loop() {
			benchGeneration = b.capture()
		}
	})
	bm.Run("capture+encode", func(bm *testing.B) {
		bm.ReportAllocs()
		var buf bytes.Buffer
		for bm.Loop() {
			buf.Reset()
			if err := b.capture().write(&buf, 1); err != nil {
				bm.Fatal(err)
			}
		}
		bm.ReportMetric(float64(buf.Len()), "B/generation")
		bm.ReportMetric(float64(verdicts), "verdicts")
	})
	bm.Run("decode+restore", func(bm *testing.B) {
		bm.ReportAllocs()
		into, err := New(db, Config{Shards: 2})
		if err != nil {
			bm.Fatal(err)
		}
		defer into.Close()
		for i := 0; i < bm.N; i++ {
			bm.StopTimer()
			for _, sh := range into.shards {
				sh.streams, sh.groups = map[string]*stream{}, map[string]*group{}
			}
			bm.StartTimer()
			if err := into.loadGeneration(data.Bytes()); err != nil {
				bm.Fatal(err)
			}
		}
	})
}
