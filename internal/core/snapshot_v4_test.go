package core_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"contractdb/internal/buchi"
	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/prefilter"
	"contractdb/internal/shard"
	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
)

// The v4 golden holds the 20-contract golden corpus as the current
// writer saves it. Regenerate with
//
//	CTDB_UPDATE_GOLDENS=1 go test ./internal/core/ -run TestV4GoldenPinned
//
// after any deliberate format change; the compat matrix below will
// fail loudly until the fixture matches the writer again.
func TestV4GoldenPinned(t *testing.T) {
	ref := goldenCorpus(t)
	var fresh bytes.Buffer
	if err := ref.Save(&fresh); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/snapshot-v4.golden"
	if os.Getenv("CTDB_UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(path, fresh.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, fresh.Len())
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), want) {
		t.Fatalf("fresh v4 save (%d bytes) differs from committed golden (%d bytes); if the format changed on purpose, regenerate with CTDB_UPDATE_GOLDENS=1",
			fresh.Len(), len(want))
	}
}

// TestLoadV4Golden: the committed v4 container restores query-ready
// state with zero translations and zero flattenings — and, on hosts
// whose layout matches the file, zero slab bytes copied to the heap.
func TestLoadV4Golden(t *testing.T) {
	ref := goldenCorpus(t)

	t0 := ltl2ba.TranslationCount()
	c0 := buchi.CompileCount()
	db, stats := loadGolden(t, "testdata/snapshot-v4.golden")
	if d := ltl2ba.TranslationCount() - t0; d != 0 {
		t.Errorf("v4 load performed %d LTL→BA translations, want 0", d)
	}
	if d := buchi.CompileCount() - c0; d != 0 {
		t.Errorf("v4 load performed %d CSR flattenings, want 0", d)
	}
	if stats.FormatVersion != 4 {
		t.Fatalf("fixture reports format %d, want 4", stats.FormatVersion)
	}
	if stats.Contracts != 20 || db.Len() != 20 {
		t.Fatalf("loaded %d contracts, want 20", db.Len())
	}
	if stats.CompiledAdopted != 20 {
		t.Errorf("adopted %d compiled forms, want 20", stats.CompiledAdopted)
	}
	if stats.Sections == 0 || stats.SlabBytes == 0 {
		t.Errorf("v4 load reported %d sections, %d slab bytes; both must be nonzero", stats.Sections, stats.SlabBytes)
	}
	if snapfmt.HostZeroCopy() && unsafe.Sizeof(int(0)) == 8 && stats.CopiedBytes != 0 {
		t.Errorf("this host adopts every slab zero-copy, yet the load copied %d bytes", stats.CopiedBytes)
	}
	assertSameAnswers(t, db, ref, goldenQueries(t, ref), "v4 golden vs fresh registration")
}

// TestCompatMatrix: every v4 shape an older writer left on disk — an
// unsharded head carrying a prefilter index, a container from before
// quotients stopped being persisted — and the current one load and
// re-save to the same bytes a fresh registration of the corpus
// produces, which hold no quotient rows and no index. v4 is a fixed
// point.
func TestCompatMatrix(t *testing.T) {
	ref := goldenCorpus(t)
	var fresh bytes.Buffer
	if err := ref.Save(&fresh); err != nil {
		t.Fatal(err)
	}
	insp, err := core.InspectSnapshot(fresh.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertNoQuotientRows(t, insp)
	for _, tc := range []struct{ name, path string }{
		{"v4-unsharded-to-v4", "testdata/snapshot-v4-unsharded.golden"},
		{"v4-quotients-to-v4", "testdata/snapshot-v4-quotients.golden"},
		{"v4-to-v4", "testdata/snapshot-v4.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, stats := loadGolden(t, tc.path)
			if stats.FormatVersion != 4 {
				t.Fatalf("fixture reports format %d, want 4", stats.FormatVersion)
			}
			var resaved bytes.Buffer
			if err := db.Save(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resaved.Bytes(), fresh.Bytes()) {
				t.Errorf("re-save (%d bytes) differs from fresh v4 save (%d bytes)", resaved.Len(), fresh.Len())
			}
		})
	}
}

// TestPreV4Refused: the gob snapshots and gob register records older
// builds wrote are refused by name at every entry point, and install
// nothing — not even vocabulary.
func TestPreV4Refused(t *testing.T) {
	for _, path := range []string{
		"testdata/snapshot-v2.golden",
		"testdata/snapshot-v3.golden",
		"testdata/register-gob-full.rec",
		"testdata/register-gob-deferred.rec",
	} {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			db, loadErr := core.Load(bytes.NewReader(data))
			if db != nil {
				t.Error("core.Load returned a database")
			}
			sdb, _, shardErr := shard.LoadBytesWithStats(data, 2)
			if sdb != nil {
				t.Error("shard.LoadBytesWithStats returned a database")
			}
			_, inspErr := core.InspectSnapshot(data)
			voc := vocab.MustFromNames("purchase")
			target := core.NewDB(voc, core.Options{})
			replayErr := core.ApplyRegistrationTo(data, func(string) *core.DB { return target }, nil)
			if target.Len() != 0 || voc.Len() != 1 {
				t.Errorf("replay left %d contracts and %d events behind", target.Len(), voc.Len())
			}
			for name, err := range map[string]error{
				"core.Load":                loadErr,
				"shard.LoadBytesWithStats": shardErr,
				"core.InspectSnapshot":     inspErr,
				"core.ApplyRegistrationTo": replayErr,
			} {
				if !errors.Is(err, core.ErrUnsupportedFormat) {
					t.Errorf("%s: got %v, want %v", name, err, core.ErrUnsupportedFormat)
				}
			}
		})
	}
}

// TestLoadV4ZeroCopy: on a matching host the adopted CSR arrays must
// alias the snapshot image — the whole point of the flat sections —
// and the load as a whole must not allocate anywhere near slab size.
func TestLoadV4ZeroCopy(t *testing.T) {
	if !snapfmt.HostZeroCopy() || unsafe.Sizeof(int(0)) != 8 {
		t.Skip("host does not adopt slabs zero-copy")
	}
	// The golden corpus is too small for an allocation bound — the
	// fixed cost of heads, parsed specs and checkers exceeds its slab
	// bytes. Build a corpus of benchmark-sized contracts instead, where
	// the CSR slabs dominate and a single copied section is visible.
	voc := datagen.NewVocabulary()
	src := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	gen := datagen.New(voc, 11)
	for src.Len() < 25 {
		if _, err := src.Register("", gen.Specification(datagen.SimpleContracts.Properties)); err != nil {
			continue
		}
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	insp, err := core.InspectSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	allocs := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	load := func(data []byte) (*core.DB, core.LoadStats, int64) {
		t.Helper()
		var db *core.DB
		var stats core.LoadStats
		var err error
		n := allocs(func() { db, stats, err = core.LoadBytesWithStats(data) })
		if err != nil {
			t.Fatal(err)
		}
		return db, stats, n
	}
	// Loading an empty database costs what no corpus changes — above
	// all NewDB's preallocated query caches; the ceiling applies to
	// what the contracts add on top.
	var empty bytes.Buffer
	if err := core.NewDB(datagen.NewVocabulary(), core.Options{MaxAutomatonStates: 300}).Save(&empty); err != nil {
		t.Fatal(err)
	}
	_, _, fixed := load(empty.Bytes())
	db, stats, allocated := load(data)
	// The load rebuilds the prefilter index from the adopted compiled
	// forms (the container persists none), mostly transient maps that
	// are not slab copies. Measure that rebuild on its own, into a
	// fresh index, and charge the load only for the rest.
	rebuild := allocs(func() {
		ix := prefilter.New(prefilter.DefaultK)
		for i, c := range db.Contracts() {
			ix.InsertPrepared(i, prefilter.PrepareCompiled(c.Automaton().Compiled(), prefilter.DefaultK))
		}
	})

	// Aliasing: every contract's edge arrays point into the image.
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	aliased := 0
	for _, c := range db.Contracts() {
		cc := c.Automaton().Compiled()
		if len(cc.EdgeTo) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(&cc.EdgeTo[0]))
		if p < lo || p >= hi {
			t.Fatalf("contract %s: EdgeTo was copied to the heap, not adopted from the image", c.Name)
		}
		aliased++
	}
	if aliased == 0 {
		t.Fatal("no contract had edges to check aliasing against")
	}

	// Allocation ceiling: the head, contract shells and checkers cost
	// real allocations, but nothing slab-sized — a regression that
	// copies even one big section busts the bound.
	t.Logf("load allocated %d bytes: empty load %d, index rebuild %d; %d slab bytes",
		allocated, fixed, rebuild, insp.SlabBytes)
	if extra := allocated - fixed - rebuild; extra >= insp.SlabBytes {
		t.Errorf("load allocated %d bytes beyond an empty load's %d and an index rebuild's %d, with %d slab bytes in the file; a slab is being copied",
			extra, fixed, rebuild, insp.SlabBytes)
	}
	if stats.CopiedBytes != 0 {
		t.Errorf("stats report %d copied bytes, want 0 on this host", stats.CopiedBytes)
	}

	// Queries after the load derive projection quotients from the
	// adopted partitions and build a checker for each, seed analysis
	// included. That must leave every quotient compiled-only: no Out
	// adjacency materialized on the heap.
	for i := 0; i < 24; i++ {
		if _, err := db.Query(gen.Specification(datagen.SimpleQueries.Properties)); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for _, c := range db.Contracts() {
		for _, q := range c.CheckedQuotients() {
			if q.Out != nil {
				t.Fatalf("contract %s: a quotient's adjacency was materialized on the heap by the query path", c.Name)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no query checked a projection quotient")
	}
}

// TestLoadV4Hostile: a corrupted container must be refused with the
// named snapfmt sentinel for the frame violations, and must never
// load partially for slab-level damage.
func TestLoadV4Hostile(t *testing.T) {
	orig, err := os.ReadFile("testdata/snapshot-v4.golden")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.InspectSnapshot(orig); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		mutate   func(b []byte) []byte
		sentinel error
	}{
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-40] }, snapfmt.ErrTruncated},
		{"truncated-header", func(b []byte) []byte { return b[:16] }, snapfmt.ErrTruncated},
		{"slab-bitflip", func(b []byte) []byte {
			// Flip one byte in the middle of the file: inside some
			// section's payload, caught by its CRC.
			b[len(b)/2] ^= 0xFF
			return b
		}, snapfmt.ErrSectionCRC},
		{"directory-bitflip", func(b []byte) []byte {
			// The 32-byte footer starts with dirOff; nudging it lands the
			// directory somewhere the CRC refuses.
			b[len(b)-32] ^= 0x01
			return b
		}, snapfmt.ErrDirectory},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), orig...))
			_, _, err := core.LoadBytesWithStats(mutated)
			if err == nil {
				t.Fatal("load accepted a corrupted container")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("error %v does not wrap %v", err, tc.sentinel)
			}
		})
	}
}
