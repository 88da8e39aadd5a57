package core_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/prefilter"
	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
)

// The v5 golden holds the 20-contract golden corpus as the current
// writer saves it. Regenerate it, and the v5 fixed points of the
// compat matrix, with
//
//	CTDB_UPDATE_GOLDENS=1 go test ./internal/core/ -run 'TestV5GoldenPinned|TestCompatMatrix'
//
// after any deliberate format change; the compat matrix below will
// fail loudly until the fixtures match the writer again. The v4
// fixtures are never regenerated: they are what earlier builds wrote.
func TestV5GoldenPinned(t *testing.T) {
	ref := goldenCorpus(t)
	var fresh bytes.Buffer
	if err := ref.Save(&fresh); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/snapshot-v5.golden"
	updateGolden(t, path, fresh.Bytes())
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), want) {
		t.Fatalf("fresh save (%d bytes) differs from committed golden (%d bytes); if the format changed on purpose, regenerate with CTDB_UPDATE_GOLDENS=1",
			fresh.Len(), len(want))
	}
}

// updateGolden writes data to path when CTDB_UPDATE_GOLDENS is set.
func updateGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if os.Getenv("CTDB_UPDATE_GOLDENS") == "" {
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", path, len(data))
}

// TestLoadV4Golden: the committed containers — the current v5 one and
// the v4 ones earlier builds wrote, among them
// snapshot-v4-gpvw.golden, whose automata the tableau translator built
// — restore query-ready state with zero translations and zero
// flattenings. On hosts whose layout matches the file a v5 load copies
// no slab byte to the heap; a v4 load copies exactly its int64 classes
// slab, which it narrows to int32.
func TestLoadV4Golden(t *testing.T) {
	for _, path := range []string{"testdata/snapshot-v4.golden", "testdata/snapshot-v4-gpvw.golden", "testdata/snapshot-v5.golden"} {
		t.Run(filepath.Base(path), func(t *testing.T) { checkLoadV4Golden(t, path) })
	}
}

func checkLoadV4Golden(t *testing.T, path string) {
	ref := goldenCorpus(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	insp, err := core.InspectSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	t0 := ltl2ba.TranslationCount()
	b0 := buchi.BuildCount()
	db, stats := loadGolden(t, path)
	if d := ltl2ba.TranslationCount() - t0; d != 0 {
		t.Errorf("v4 load performed %d LTL→BA translations, want 0", d)
	}
	if d := buchi.BuildCount() - b0; d != 0 {
		t.Errorf("v4 load built %d automata from rows, want 0", d)
	}
	if stats.FormatVersion != insp.FormatVersion || insp.FormatVersion < 4 {
		t.Fatalf("load reports format %d, inspection %d", stats.FormatVersion, insp.FormatVersion)
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
	if snapfmt.HostZeroCopy() {
		var want int64 // v5: every slab adopted
		if insp.FormatVersion == 4 {
			want = sectionBytes(t, insp, "classes")
		}
		if stats.CopiedBytes != want {
			t.Errorf("this host adopts v%d slabs with %d bytes copied, yet the load copied %d bytes",
				insp.FormatVersion, want, stats.CopiedBytes)
		}
	}
	assertSameAnswers(t, db, ref, goldenQueries(t, ref), "golden vs fresh registration")
}

// sectionBytes returns the size of the named section.
func sectionBytes(t *testing.T, insp *core.SnapshotInspection, name string) int64 {
	t.Helper()
	for _, s := range insp.Sections {
		if s.Name == name {
			return s.Bytes
		}
	}
	t.Fatalf("no %s section", name)
	return 0
}

// TestCompatMatrix: every container an earlier or the current writer
// left loads with zero translations and re-saves to fixed v5 bytes,
// whichever translator built its automata. A load never retranslates,
// so the automata stored by earlier translators survive every re-save:
//
//   - snapshot-v4-clausewise.golden — a v4 container as the translator
//     that degeneralized clause by clause wrote it — re-saves onto
//     snapshot-v5-clausewise.golden, which re-saves onto itself;
//   - snapshot-v4-gpvw.golden — a v4 container as the tableau
//     translator, with state-based acceptance, wrote it — likewise
//     onto snapshot-v5-gpvw.golden;
//   - snapshot-v4.golden and snapshot-v5.golden re-save to a fresh
//     registration's bytes.
//
// v5 is a fixed point. Every fixture answers the golden query mix as a
// fresh registration does: the translations differ, their languages
// do not.
func TestCompatMatrix(t *testing.T) {
	ref := goldenCorpus(t)
	var fresh bytes.Buffer
	if err := ref.Save(&fresh); err != nil {
		t.Fatal(err)
	}
	queries := goldenQueries(t, ref)
	for _, tc := range []struct {
		name, path string
		version    int
		want       string // fixed-point fixture; "" for a fresh save
	}{
		{"v4-clausewise-to-v5", "testdata/snapshot-v4-clausewise.golden", 4, "testdata/snapshot-v5-clausewise.golden"},
		{"v4-gpvw-to-v5", "testdata/snapshot-v4-gpvw.golden", 4, "testdata/snapshot-v5-gpvw.golden"},
		{"v4-to-v5", "testdata/snapshot-v4.golden", 4, ""},
		{"v5-clausewise-to-v5", "testdata/snapshot-v5-clausewise.golden", 5, "testdata/snapshot-v5-clausewise.golden"},
		{"v5-gpvw-to-v5", "testdata/snapshot-v5-gpvw.golden", 5, "testdata/snapshot-v5-gpvw.golden"},
		{"v5-to-v5", "testdata/snapshot-v5.golden", 5, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t0 := ltl2ba.TranslationCount()
			db, stats := loadGolden(t, tc.path)
			if d := ltl2ba.TranslationCount() - t0; d != 0 {
				t.Errorf("load performed %d LTL→BA translations, want 0", d)
			}
			if stats.FormatVersion != tc.version {
				t.Fatalf("fixture reports format %d, want %d", stats.FormatVersion, tc.version)
			}
			var resaved bytes.Buffer
			if err := db.Save(&resaved); err != nil {
				t.Fatal(err)
			}
			want := fresh.Bytes()
			if tc.want != "" {
				if tc.version == 4 {
					updateGolden(t, tc.want, resaved.Bytes())
				}
				var err error
				if want, err = os.ReadFile(tc.want); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(resaved.Bytes(), want) {
				t.Errorf("re-save (%d bytes) differs from the %d-byte target", resaved.Len(), len(want))
			}
			insp, err := core.InspectSnapshot(resaved.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if insp.FormatVersion != 5 {
				t.Errorf("re-save is format %d, want 5", insp.FormatVersion)
			}
			assertV5Sections(t, insp)
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
	b0 := buchi.BuildCount()
	allocated := allocs(load(data))
	if d := buchi.BuildCount() - b0; d != 0 {
		t.Errorf("five loads built %d automata from rows, want 0: a load adopts every automaton's arrays", d)
	}
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
			ix.InsertPrepared(i, prefilter.Prepare(c.Automaton(), prefilter.DefaultK))
		}
	})
	f, err := snapfmt.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	head := allocs(func() {
		if err := core.UnmarshalHead(f.Head); err != nil {
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
		cc := c.Automaton()
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
	// the automaton and its array headers, the checker, the
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
	// adopted partitions and build a checker for each. A quotient is
	// remapped from its parent's arrays, never built from rows: the
	// only automata the queries build are their own translations.
	t0, b0 := ltl2ba.TranslationCount(), buchi.BuildCount()
	for i := 0; i < 24; i++ {
		if _, err := db.Query(gen.Specification(datagen.SimpleQueries.Properties)); err != nil {
			t.Fatal(err)
		}
	}
	if builds, translations := buchi.BuildCount()-b0, ltl2ba.TranslationCount()-t0; builds != translations {
		t.Errorf("24 queries built %d automata from rows and translated %d; a quotient was built from rows", builds, translations)
	}
	checked := 0
	for _, c := range db.Contracts() {
		checked += len(c.CheckedQuotients())
	}
	if checked == 0 {
		t.Fatal("no query checked a projection quotient")
	}
}

// TestHeadBitFlipRefused: one flipped bit in a contract's spec text —
// the F of G (purchase -> F refund) turned into a G — fails the head
// checksum at every entry point, in a snapshot and in a register
// record alike, instead of loading (and exporting) the damaged spec.
func TestHeadBitFlipRefused(t *testing.T) {
	db := core.NewDB(vocab.MustFromNames(recordEvents...), core.Options{})
	log := &captureLog{}
	db.SetOpLog(log)
	if _, err := db.RegisterLTL("Flexible", "G(purchase -> F refund)"); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"snapshot": saveOf(t, db), "register record": log.records[0]} {
		i := bytes.Index(data, []byte("F refund"))
		if i < 0 {
			t.Fatalf("%s: no spec text in %q", name, data)
		}
		data[i] ^= 'F' ^ 'G'
		_, loadErr := core.Load(bytes.NewReader(data))
		_, inspErr := core.InspectSnapshot(data)
		replayErr := core.NewDB(vocab.New(), core.Options{}).ApplyRegistration(data, nil)
		for entry, err := range map[string]error{"Load": loadErr, "InspectSnapshot": inspErr, "ApplyRegistration": replayErr} {
			if !errors.Is(err, snapfmt.ErrHeadCRC) {
				t.Errorf("%s with a flipped spec bit: %s = %v, want %v", name, entry, err, snapfmt.ErrHeadCRC)
			}
		}
	}
}

// TestV4SubsetListChecked: a v4 container whose part-ref-sets section
// lists the subsets in another order than their rank — framed with
// valid checksums — is refused by name, not served with tables cited
// for the wrong subsets.
func TestV4SubsetListChecked(t *testing.T) {
	f, err := snapfmt.Parse(readFixture(t, "testdata/snapshot-v4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var w snapfmt.Writer
	w.SetHead(f.Head)
	for _, s := range f.Sections {
		payload, _ := f.Section(s.Kind)
		if core.SectionName(s.Kind) == "part-ref-sets" {
			payload = slices.Clone(payload)
			// Swap the first contract's second and third subsets.
			a, b := payload[8:16], payload[16:24]
			var tmp [8]byte
			copy(tmp[:], a)
			copy(a, b)
			copy(b, tmp[:])
		}
		w.AddSection(s.Kind, payload)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, _, err = core.LoadBytesWithStats(buf.Bytes())
	if !errors.Is(err, core.ErrUnsupportedFormat) || !strings.Contains(err.Error(), "part-ref-sets") {
		t.Fatalf("reordered v4 subset list: %v, want %v naming part-ref-sets", err, core.ErrUnsupportedFormat)
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

// TestPrecomputeSameAfterReload: for contracts of every datagen class,
// Precompute on the freshly registered automaton and on the same
// contract's automaton adopted from its snapshot gives identical flat
// exports, and the reloaded contract keeps the partitions its
// registration stored.
func TestPrecomputeSameAfterReload(t *testing.T) {
	voc := datagen.NewVocabulary()
	src := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	gen := datagen.New(voc, 41)
	for _, class := range datagen.ContractClasses() {
		for registered := 0; registered < 3; {
			if _, err := src.Register("", gen.Specification(class.Properties)); err == nil {
				registered++
			}
		}
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh, reloaded := src.Contracts(), loaded.Contracts()
	if len(fresh) != 9 || len(reloaded) != len(fresh) {
		t.Fatalf("%d contracts registered, %d reloaded", len(fresh), len(reloaded))
	}
	for i, c := range fresh {
		r := reloaded[i]
		if r.Name != c.Name {
			t.Fatalf("contract %d: %s reloaded as %s", i, c.Name, r.Name)
		}
		if !reflect.DeepEqual(r.PartitionTables(), c.PartitionTables()) {
			t.Fatalf("%s: reloaded partition tables differ from the registered ones", c.Name)
		}
		for _, k := range []int{1, 3} {
			want := bisim.Precompute(c.Automaton(), k).ExportFlat()
			if got := bisim.Precompute(r.Automaton(), k).ExportFlat(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Precompute(%d) on the reloaded automaton exports %+v, fresh %+v", c.Name, k, got, want)
			}
		}
	}
}
