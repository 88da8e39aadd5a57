package core_test

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/ltl"
	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
)

// The committed register-gob-*.rec fixtures are WAL register records
// as builds before the container record wrote them: gob records
// carrying the pointer automaton, its compiled form, per-subset
// partition tables and a quotient table. This build refuses them (see
// TestPreV4Refused). Each was captured from a database over
// recordEvents registering one of recordContracts — the full one
// synchronously, the deferred one through a one-worker ingest
// pipeline, which logs before promotion — as containerRecords does
// today.
var recordEvents = []string{"purchase", "use", "refund", "dateChange"}

var recordContracts = []struct {
	name, spec, fixture string
	workers             int
}{
	{"Flexible", "G(purchase -> F refund)", "testdata/register-gob-full.rec", 0},
	{"NoRefundsAfterUse", "G(use -> G !refund) & F purchase", "testdata/register-gob-deferred.rec", 1},
}

// gobRecords reads the committed gob-era register records.
func gobRecords(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, rc := range recordContracts {
		b, err := os.ReadFile(rc.fixture)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// containerRecords registers recordContracts the way the fixtures were
// made and returns the register records this build logs for them.
func containerRecords(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, rc := range recordContracts {
		db := core.NewDB(vocab.MustFromNames(recordEvents...), core.Options{IngestWorkers: rc.workers})
		log := &captureLog{}
		db.SetOpLog(log)
		if _, err := db.Register(rc.name, ltl.MustParse(rc.spec)); err != nil {
			t.Fatal(err)
		}
		db.Close()
		if len(log.records) != 1 {
			t.Fatalf("%s: captured %d records, want 1", rc.name, len(log.records))
		}
		out = append(out, log.records[0])
	}
	return out
}

// replayRecords applies records in order to a fresh synchronous
// database with an empty vocabulary.
func replayRecords(t *testing.T, records [][]byte) (*core.DB, core.LoadStats) {
	t.Helper()
	db := core.NewDB(vocab.New(), core.Options{})
	var stats core.LoadStats
	for i, rec := range records {
		if err := core.ApplyRegistrationTo(rec, func(string) *core.DB { return db }, &stats); err != nil {
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

// TestRegisterRecordIsContainer: a fresh register record is a
// one-contract container without quotient rows, deferred exactly when
// it was logged ahead of the projection precompute.
func TestRegisterRecordIsContainer(t *testing.T) {
	for i, rec := range containerRecords(t) {
		if !snapfmt.Sniff(rec) {
			t.Fatalf("record %d is not a v4 container", i)
		}
		insp, err := core.InspectSnapshot(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !insp.Sharded || insp.Contracts != 1 || insp.PerContract[0].Name != recordContracts[i].name {
			t.Fatalf("record %d: sharded %v, %d contracts; want one sharded contract %q",
				i, insp.Sharded, insp.Contracts, recordContracts[i].name)
		}
		if want := recordContracts[i].workers > 0; insp.PerContract[0].Deferred != want {
			t.Errorf("record %d: deferred %v, want %v", i, insp.PerContract[0].Deferred, want)
		}
		assertNoQuotientRows(t, insp)
	}
}

func assertNoQuotientRows(t *testing.T, insp *core.SnapshotInspection) {
	t.Helper()
	for _, s := range insp.Sections {
		if (s.Name == "quot-ref-sets" || s.Name == "quot-ref-tables") && s.Bytes != 0 {
			t.Errorf("section %s holds %d bytes; quotients are no longer persisted", s.Name, s.Bytes)
		}
	}
}

// TestRegisterRecordReplays: container records replay — the deferred
// one promoted inline — adopting every compiled form, and replaying
// them a second time changes nothing.
func TestRegisterRecordReplays(t *testing.T) {
	records := containerRecords(t)
	db, stats := replayRecords(t, records)
	if stats.Contracts != 2 || stats.Degraded != 1 || stats.CompiledAdopted != 2 || stats.FormatVersion != 4 {
		t.Errorf("replay stats %+v: want 2 contracts, 1 degraded, 2 compiled forms adopted, version 4", stats)
	}
	want := saveOf(t, db)
	for _, rec := range records {
		if err := core.ApplyRegistrationTo(rec, func(string) *core.DB { return db }, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saveOf(t, db), want) {
		t.Fatal("replaying already-installed records changed the database")
	}
}

// TestApplyRegistrationHostile: truncated records of either shape and
// container records with a damaged section or directory are refused,
// installing nothing — not even vocabulary.
func TestApplyRegistrationHostile(t *testing.T) {
	var damaged [][]byte
	for _, rec := range append(gobRecords(t), containerRecords(t)...) {
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
		if err := core.ApplyRegistrationTo(rec, func(string) *core.DB { return db }, nil); err == nil {
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
// The gob seeds exercise the refusal branch.
func FuzzApplyRegistration(f *testing.F) {
	for _, rec := range gobRecords(f) {
		f.Add(rec)
	}
	for _, rec := range containerRecords(f) {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		voc := vocab.MustFromNames("purchase")
		db := core.NewDB(voc, core.Options{})
		err := core.ApplyRegistrationTo(data, func(string) *core.DB { return db }, nil)
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
