package core_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"contractdb/internal/buchi"
	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/prefilter"
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

// TestLoadV4Golden: the committed v4 containers — the current one and
// snapshot-v4-gpvw.golden, whose automata the tableau translator built
// — restore query-ready state with zero translations and zero
// flattenings — and, on hosts whose layout matches the file, zero slab
// bytes copied to the heap.
func TestLoadV4Golden(t *testing.T) {
	for _, path := range []string{"testdata/snapshot-v4.golden", "testdata/snapshot-v4-gpvw.golden"} {
		t.Run(filepath.Base(path), func(t *testing.T) { checkLoadV4Golden(t, path) })
	}
}

func checkLoadV4Golden(t *testing.T, path string) {
	ref := goldenCorpus(t)

	t0 := ltl2ba.TranslationCount()
	c0 := buchi.CompileCount()
	db, stats := loadGolden(t, path)
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

// TestCompatMatrix: every container the current writer's shape holds
// loads and re-saves to fixed bytes, whichever translator built its
// automata. A load never retranslates, so the automata stored by
// earlier translators survive every re-save:
//
//   - snapshot-v4-clausewise.golden — the current container as the
//     translator that degeneralized clause by clause wrote it —
//     re-saves onto itself;
//   - snapshot-v4-gpvw.golden — the current container as the tableau
//     translator, with state-based acceptance, wrote it — re-saves
//     onto itself;
//   - snapshot-v4.golden re-saves to a fresh registration's bytes.
//
// v4 is a fixed point. Every fixture answers the golden query mix as a
// fresh registration does: the translations differ, their languages
// do not.
func TestCompatMatrix(t *testing.T) {
	ref := goldenCorpus(t)
	var fresh bytes.Buffer
	if err := ref.Save(&fresh); err != nil {
		t.Fatal(err)
	}
	clausewise, err := os.ReadFile("testdata/snapshot-v4-clausewise.golden")
	if err != nil {
		t.Fatal(err)
	}
	gpvw, err := os.ReadFile("testdata/snapshot-v4-gpvw.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{fresh.Bytes(), clausewise, gpvw} {
		insp, err := core.InspectSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		assertNoQuotientRows(t, insp)
	}
	queries := goldenQueries(t, ref)
	for _, tc := range []struct {
		name, path string
		want       []byte
	}{
		{"v4-clausewise-to-v4", "testdata/snapshot-v4-clausewise.golden", clausewise},
		{"v4-gpvw-to-v4", "testdata/snapshot-v4-gpvw.golden", gpvw},
		{"v4-to-v4", "testdata/snapshot-v4.golden", fresh.Bytes()},
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
			if !bytes.Equal(resaved.Bytes(), tc.want) {
				t.Errorf("re-save (%d bytes) differs from the %d-byte target", resaved.Len(), len(tc.want))
			}
			assertSameAnswers(t, db, ref, queries, tc.name)
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
		t.Run(filepath.Base(path), func(t *testing.T) { assertRefused(t, path, "no v4 container magic") })
	}
}

// TestLegacyV4Refused: the v4 shapes older writers left — an unsharded
// head carrying a prefilter index, a container carrying persisted
// quotients, and a Deferred register record logged before its
// projection precompute — are refused by name at every entry point,
// and install nothing.
func TestLegacyV4Refused(t *testing.T) {
	for _, tc := range []struct{ path, shape string }{
		{"testdata/snapshot-v4-unsharded.golden", "unsharded head"},
		{"testdata/snapshot-v4-quotients.golden", "persisted quotients"},
		{deferredFixture, "deferred contract"},
	} {
		t.Run(filepath.Base(tc.path), func(t *testing.T) { assertRefused(t, tc.path, tc.shape) })
	}
}

// assertRefused checks that every reader refuses the fixture at path
// with ErrUnsupportedFormat and an error naming shape, and that the
// replay installs nothing.
func assertRefused(t *testing.T, path, shape string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db, loadErr := core.Load(bytes.NewReader(data))
	if db != nil {
		t.Error("core.Load returned a database")
	}
	ldb, _, bytesErr := core.LoadBytesWithStats(data)
	if ldb != nil {
		t.Error("core.LoadBytesWithStats returned a database")
	}
	_, peekErr := core.PeekV4(data)
	_, inspErr := core.InspectSnapshot(data)
	voc := vocab.MustFromNames("purchase")
	target := core.NewDB(voc, core.Options{})
	replayErr := target.ApplyRegistration(data, nil)
	if target.Len() != 0 || voc.Len() != 1 {
		t.Errorf("replay left %d contracts and %d events behind", target.Len(), voc.Len())
	}
	for name, err := range map[string]error{
		"core.Load":               loadErr,
		"core.LoadBytesWithStats": bytesErr,
		"core.PeekV4":             peekErr,
		"core.InspectSnapshot":    inspErr,
		"DB.ApplyRegistration":    replayErr,
	} {
		if !errors.Is(err, core.ErrUnsupportedFormat) {
			t.Errorf("%s: got %v, want %v", name, err, core.ErrUnsupportedFormat)
		} else if !strings.Contains(err.Error(), shape) {
			t.Errorf("%s: %v does not name the shape %q", name, err, shape)
		}
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

	// allocs reports the fewest bytes f allocates over five runs: map
	// growth varies a little from run to run, and the minimum is the
	// stable reading.
	allocs := func(f func()) int64 {
		best := int64(math.MaxInt64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			best = min(best, int64(after.TotalAlloc-before.TotalAlloc))
		}
		return best
	}
	var db *core.DB
	var stats core.LoadStats
	load := func(data []byte) func() {
		return func() {
			var err error
			if db, stats, err = core.LoadBytesWithStats(data); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Loading an empty database costs what no corpus changes — above
	// all NewDB's preallocated query caches; the ceiling applies to
	// what the contracts add on top.
	var empty bytes.Buffer
	if err := core.NewDB(datagen.NewVocabulary(), core.Options{MaxAutomatonStates: 300}).Save(&empty); err != nil {
		t.Fatal(err)
	}
	fixed := allocs(load(empty.Bytes()))
	allocated := allocs(load(data))
	// Then the load does three things that allocate without copying a
	// slab, each priced here on its own: it rebuilds the prefilter
	// index from the adopted compiled forms (the container persists
	// none), mostly transient maps; it decodes the head once, for both
	// the options the database is built with and the contracts it
	// restores; and it parses each specification.
	contracts := db.Contracts()
	specs := make([]string, len(contracts))
	tables := 0
	for i, c := range contracts {
		specs[i] = c.Spec.String()
		tables += len(c.PartitionTables())
	}
	rebuild := allocs(func() {
		ix := prefilter.New(prefilter.DefaultK)
		for i, c := range contracts {
			ix.InsertPrepared(i, prefilter.PrepareCompiled(c.Automaton().Compiled(), prefilter.DefaultK))
		}
	})
	head := allocs(func() {
		if _, err := core.PeekV4(data); err != nil {
			t.Fatal(err)
		}
	})
	parse := allocs(func() {
		for _, src := range specs {
			if _, err := ltl.Parse(src); err != nil {
				t.Fatal(err)
			}
		}
	})

	// Aliasing: every contract's edge arrays point into the image.
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	aliased := 0
	for _, c := range contracts {
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

	// Allocation ceiling: what remains is per-contract bookkeeping —
	// the shell automaton and compiled-form headers, the checker, the
	// contract record, the projection set — a few hundred bytes each,
	// plus one partition header (a class-slab view and its count, 32
	// bytes) per distinct partition table; the subset and reference
	// slabs are adopted as they are, with no per-subset cost. The bound
	// allows 1 KiB per contract, about twice its share, and the 32
	// bytes per table; copying any one of this corpus's edge, class or
	// ref slabs to the heap busts it.
	const perContract, perTable = 1 << 10, 32
	rest := allocated - fixed - rebuild - head - parse
	t.Logf("load allocated %d bytes: empty load %d, index rebuild %d, head %d, spec parse %d, rest %d for %d contracts and %d partition tables; %d slab bytes",
		allocated, fixed, rebuild, head, parse, rest, len(contracts), tables, insp.SlabBytes)
	if limit := int64(perContract*len(contracts) + perTable*tables); rest >= limit {
		t.Errorf("load allocated %d bytes beyond the steps priced on their own, over the %d-byte allowance for %d contracts and %d partition tables (%d slab bytes in the file); a slab is being copied",
			rest, limit, len(contracts), tables, insp.SlabBytes)
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
