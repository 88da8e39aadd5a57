package core_test

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
)

// The committed register-gob-*.rec fixtures are WAL register records
// as builds before the container record wrote them: gob records
// carrying the pointer automaton, its compiled form, per-subset
// partition tables and a quotient table. This build refuses them (see
// TestPreV4Refused). register-v4-deferred.rec is a container record as
// builds with a background registration pipeline logged it, before the
// projection precompute ran: Deferred, with no partition rows. This
// build refuses it too (see TestLegacyV4Refused). register-v4.rec is a
// formatVersion-4 record as every build before format 5 logged it,
// which this build replays (see TestReplayV4Record). Each fixture was
// captured from a database over recordEvents registering one of
// recordContracts; the deferred ones hold NoRefundsAfterUse,
// register-v4.rec holds Flexible.
var recordEvents = []string{"purchase", "use", "refund", "dateChange"}

var recordContracts = []struct{ name, spec string }{
	{"Flexible", "G(purchase -> F refund)"},
	{"NoRefundsAfterUse", "G(use -> G !refund) & F purchase"},
}

const (
	deferredFixture = "testdata/register-v4-deferred.rec"
	v4RecordFixture = "testdata/register-v4.rec"
)

func readFixture(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// gobRecords reads the committed gob-era register records.
func gobRecords(t testing.TB) [][]byte {
	t.Helper()
	return [][]byte{
		readFixture(t, "testdata/register-gob-full.rec"),
		readFixture(t, "testdata/register-gob-deferred.rec"),
	}
}

// containerRecords registers each of recordContracts on a fresh
// database and returns the register records this build logs for them.
func containerRecords(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, rc := range recordContracts {
		db := core.NewDB(vocab.MustFromNames(recordEvents...), core.Options{})
		log := &captureLog{}
		db.SetOpLog(log)
		if _, err := db.Register(rc.name, ltl.MustParse(rc.spec)); err != nil {
			t.Fatal(err)
		}
		if len(log.records) != 1 {
			t.Fatalf("%s: captured %d records, want 1", rc.name, len(log.records))
		}
		out = append(out, log.records[0])
	}
	return out
}

// replayRecords applies records in order to a fresh database with an
// empty vocabulary.
func replayRecords(t *testing.T, records [][]byte) (*core.DB, core.LoadStats) {
	t.Helper()
	db := core.NewDB(vocab.New(), core.Options{})
	var stats core.LoadStats
	for i, rec := range records {
		if err := db.ApplyRegistration(rec, &stats); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	return db, stats
}

func saveOf(t *testing.T, db *core.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// captureLog is an OpLog that records the encoded registration
// records, exactly as the WAL receives them.
type captureLog struct{ records [][]byte }

func (l *captureLog) LogRegister(b []byte) error {
	l.records = append(l.records, append([]byte(nil), b...))
	return nil
}
func (l *captureLog) LogUnregister(string) error { return nil }

// namedCorpus draws n satisfiable specs once, plus a reference
// database holding them under registerNamed's names. Names are
// explicit: the auto-minting counter advances on rejected draws, so a
// database that redraws and one fed only accepted specs would disagree
// on names.
func namedCorpus(t *testing.T, seed int64, n int) ([]*ltl.Expr, *core.DB) {
	t.Helper()
	voc := datagen.NewVocabulary()
	scratch := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	gen := datagen.New(voc, seed)
	var specs []*ltl.Expr
	for scratch.Len() < n {
		q := gen.Specification(3)
		if _, err := scratch.Register("", q); err != nil {
			continue
		}
		specs = append(specs, q)
	}
	ref := core.NewDB(voc, core.Options{MaxAutomatonStates: 300})
	registerNamed(t, ref, specs)
	return specs, ref
}

// registerNamed registers specs under the deterministic names
// c000, c001, ... in order, failing the test on any error.
func registerNamed(t *testing.T, db *core.DB, specs []*ltl.Expr) {
	t.Helper()
	for i, q := range specs {
		if _, err := db.Register(fmt.Sprintf("c%03d", i), q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegisterRecordIsContainer: a fresh register record is a
// one-contract v5 container, which inspection (and so every reader)
// accepts.
func TestRegisterRecordIsContainer(t *testing.T) {
	for i, data := range containerRecords(t) {
		if !snapfmt.Sniff(data) {
			t.Fatalf("record %d is not a v4 container", i)
		}
		insp, err := core.InspectSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if name := recordContracts[i].name; insp.Contracts != 1 || insp.PerContract[0].Name != name {
			t.Fatalf("record %d: %d contracts; want one contract %q", i, insp.Contracts, name)
		}
		assertV5Sections(t, insp)
	}
}

// assertV5Sections checks that a container holds exactly the v5
// sections: no quotient rows, prefilter index or subset list.
func assertV5Sections(t *testing.T, insp *core.SnapshotInspection) {
	t.Helper()
	var got []string
	for _, s := range insp.Sections {
		got = append(got, s.Name)
	}
	want := []string{"compiled-meta", "edge-off", "edge-to", "edge-label", "labels", "final", "seeds", "classes", "part-ref-tables"}
	if !slices.Equal(got, want) {
		t.Errorf("sections %v, want %v", got, want)
	}
}

// TestRegisterRecordReplays: fresh records replay, adopting every
// compiled form, into the database their registrations built, and
// replaying them a second time changes nothing.
func TestRegisterRecordReplays(t *testing.T) {
	records := containerRecords(t)
	db, stats := replayRecords(t, records)
	if stats.Contracts != 2 || stats.CompiledAdopted != 2 || stats.FormatVersion != 5 {
		t.Errorf("replay stats %+v: want 2 contracts, 2 compiled forms adopted, version 5", stats)
	}
	if rs := db.RegistrationStats(); rs.Translations != 0 {
		t.Errorf("replay translated %d specifications, want 0", rs.Translations)
	}
	want := saveOf(t, db)
	ref := core.NewDB(vocab.MustFromNames(recordEvents...), core.Options{})
	for _, rc := range recordContracts {
		if _, err := ref.RegisterLTL(rc.name, rc.spec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saveOf(t, ref), want) {
		t.Error("replayed records save different bytes than their registrations")
	}
	for _, rec := range records {
		if err := db.ApplyRegistration(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saveOf(t, db), want) {
		t.Fatal("replaying already-installed records changed the database")
	}
}

// TestReplayV4Record: the v4 register record replays, adopting its
// compiled form and narrowing its classes, into the database a
// registration of the same contract builds now — equal answers and
// equal v5 bytes on the next save — and replaying it again changes
// nothing.
func TestReplayV4Record(t *testing.T) {
	rec := readFixture(t, v4RecordFixture)
	db, stats := replayRecords(t, [][]byte{rec})
	if stats.Contracts != 1 || stats.CompiledAdopted != 1 || stats.FormatVersion != 4 {
		t.Errorf("replay stats %+v: want 1 contract, 1 compiled form adopted, version 4", stats)
	}
	ref := core.NewDB(vocab.MustFromNames(recordEvents...), core.Options{})
	if _, err := ref.RegisterLTL(recordContracts[0].name, recordContracts[0].spec); err != nil {
		t.Fatal(err)
	}
	want := saveOf(t, ref)
	if !bytes.Equal(saveOf(t, db), want) {
		t.Error("the replayed v4 record saves different bytes than its registration")
	}
	assertSameAnswers(t, db, ref, recordQueries(), "v4 record")
	if err := db.ApplyRegistration(rec, nil); err != nil || !bytes.Equal(saveOf(t, db), want) {
		t.Fatalf("replaying the installed v4 record again: %v, or the database changed", err)
	}
}

// recordQueries is a query mix over recordEvents.
func recordQueries() []*ltl.Expr {
	var out []*ltl.Expr
	for _, q := range []string{"F refund", "G !refund", "F (purchase & G !refund)", "G F use", "purchase U refund", "F dateChange"} {
		out = append(out, ltl.MustParse(q))
	}
	return out
}

// TestApplyRegistrationHostile: truncated records of either shape and
// container records with a damaged section or directory are refused,
// installing nothing — not even vocabulary.
func TestApplyRegistrationHostile(t *testing.T) {
	var damaged [][]byte
	records := append(gobRecords(t), containerRecords(t)...)
	for _, rec := range append(records, readFixture(t, deferredFixture), readFixture(t, v4RecordFixture)) {
		for cut := 0; cut < len(rec); cut += 1 + len(rec)/97 {
			damaged = append(damaged, rec[:cut])
		}
		if !snapfmt.Sniff(rec) {
			continue
		}
		f, err := snapfmt.Parse(rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range f.Sections {
			if s.Len > 0 {
				b := slices.Clone(rec)
				b[s.Off+s.Len/2] ^= 0x10
				damaged = append(damaged, b)
			}
		}
		b := slices.Clone(rec)
		b[len(b)-32] ^= 0x08 // the footer's directory offset
		damaged = append(damaged, b)
	}
	for i, rec := range damaged {
		voc := vocab.MustFromNames("purchase")
		db := core.NewDB(voc, core.Options{})
		if err := db.ApplyRegistration(rec, nil); err == nil {
			t.Fatalf("damaged record %d (%d bytes) accepted", i, len(rec))
		}
		if db.Len() != 0 || voc.Len() != 1 {
			t.Fatalf("damaged record %d left %d contracts and %d events behind", i, db.Len(), voc.Len())
		}
	}
}

// FuzzApplyRegistration: any bytes replay as a register record or are
// refused — never a panic, and a refused record installs nothing. An
// accepted record installs one contract, and its database saves and
// reloads, since replay validates exactly as the snapshot loader does.
// The gob seeds exercise the refusal branch, the v4 record the legacy
// replay.
func FuzzApplyRegistration(f *testing.F) {
	for _, rec := range gobRecords(f) {
		f.Add(rec)
	}
	for _, rec := range containerRecords(f) {
		f.Add(rec)
	}
	f.Add(readFixture(f, deferredFixture))
	f.Add(readFixture(f, v4RecordFixture))
	f.Fuzz(func(t *testing.T, data []byte) {
		voc := vocab.MustFromNames("purchase")
		db := core.NewDB(voc, core.Options{})
		err := db.ApplyRegistration(data, nil)
		if err != nil {
			if db.Len() != 0 || voc.Len() != 1 {
				t.Fatalf("refused record (%v) left %d contracts and %d events behind", err, db.Len(), voc.Len())
			}
			return
		}
		if db.Len() != 1 {
			t.Fatalf("accepted record installed %d contracts", db.Len())
		}
		saved := saveOf(t, db)
		if _, err := core.Load(bytes.NewReader(saved)); err != nil {
			t.Fatalf("database built by an accepted record does not reload: %v", err)
		}
	})
}
