package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"testing"

	"contractdb/internal/vocab"
)

// FuzzStreamRecord feeds arbitrary bytes to the journal record
// decoders. A record is either refused with errCorruptRecord or
// decodes, and then its re-encoding decodes to the same values and
// re-encodes to the same bytes; it never panics. Any type but the
// create and the legacy raw event record decodes as a uvarint event
// record. The seeds hold well-formed records and hostile counts: a
// contract count of 2^62, a raw snapshot count of 2^61, whose 8*n
// overflows to zero, a uvarint snapshot count past the bytes left, a
// snapshot uvarint past 64 bits, and a snapshot cut short.
func FuzzStreamRecord(f *testing.F) {
	head := binary.AppendUvarint(appendString(nil, "s"), 0)
	f.Add(recCreate, encodeCreate(nil, "s", []string{"A", "B"}))
	f.Add(recCreate, encodeCreate(nil, "", nil))
	f.Add(recEvents, encodeEvents(nil, "s", 3, []vocab.Set{1, 6, 0, 1 << 63}))
	f.Add(recEvents, encodeEvents(nil, "s", 0, nil))
	f.Add(recEventsRaw, encodeEventsRaw(nil, "s", 3, []vocab.Set{1, 6, 0}))
	f.Add(recEventsRaw, encodeEventsRaw(nil, "s", 0, nil))
	f.Add(recCreate, binary.AppendUvarint(appendString(nil, "s"), 1<<62))
	f.Add(recEventsRaw, binary.AppendUvarint(bytes.Clone(head), 1<<61))
	f.Add(recEvents, append(binary.AppendUvarint(bytes.Clone(head), 3), 0, 0))
	f.Add(recEvents, append(binary.AppendUvarint(bytes.Clone(head), 1), bytes.Repeat([]byte{0xff}, 10)...))
	f.Add(recEvents, append(binary.AppendUvarint(bytes.Clone(head), 2), 0, 0x80))

	f.Fuzz(func(t *testing.T, typ byte, data []byte) {
		// decode returns the record's values and their re-encoding.
		var decode func([]byte) (any, []byte, error)
		switch typ {
		case recCreate:
			decode = func(b []byte) (any, []byte, error) {
				name, contracts, err := decodeCreate(b)
				return []any{name, contracts}, encodeCreate(nil, name, contracts), err
			}
		case recEventsRaw:
			decode = func(b []byte) (any, []byte, error) {
				name, first, snaps, err := decodeEvents(recEventsRaw, b)
				return []any{name, first, snaps}, encodeEventsRaw(nil, name, first, snaps), err
			}
		default:
			decode = func(b []byte) (any, []byte, error) {
				name, first, snaps, err := decodeEvents(recEvents, b)
				return []any{name, first, snaps}, encodeEvents(nil, name, first, snaps), err
			}
		}
		got, enc, err := decode(data)
		if err != nil {
			if !errors.Is(err, errCorruptRecord) {
				t.Fatalf("refusal %v is not errCorruptRecord", err)
			}
			return
		}
		again, enc2, err := decode(enc)
		if err != nil {
			t.Fatalf("re-encoded record %x refused: %v", enc, err)
		}
		if !reflect.DeepEqual(got, again) || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the record: %v as %x, then %v as %x", got, enc, again, enc2)
		}
	})
}

// encodeEventsRaw is the event-record encoder of earlier builds, which
// wrote each snapshot as a raw 8-byte little-endian set under
// recEventsRaw. Recovery still replays such records.
func encodeEventsRaw(b []byte, name string, first uint64, snaps []vocab.Set) []byte {
	b = appendString(b, name)
	b = binary.AppendUvarint(b, first)
	b = binary.AppendUvarint(b, uint64(len(snaps)))
	for _, s := range snaps {
		b = binary.LittleEndian.AppendUint64(b, uint64(s))
	}
	return b
}

// FuzzStreamCheckpoint feeds arbitrary bytes to recovery's generation
// loader, container or gob. A generation is refused with
// ErrCorruptCheckpoint and restores nothing, or it loads. A loaded
// broker re-encodes to a generation that decodes and re-encodes to the
// same bytes, and every attachment steps an empty snapshot and one of
// the whole vocabulary without panicking. The seeds hold a valid
// generation in each format, an empty one, and badGenerations: among
// them the gob generations with a short status list, status 7, and bit
// 63 set in a 2-state frontier, which earlier builds either panicked
// on at recovery or restored to panic at the first push.
func FuzzStreamCheckpoint(f *testing.F) {
	db := checkpointDB(f)
	sample := sampleGeneration(f, db)
	var container, legacy, empty bytes.Buffer
	if err := sample.write(&container, 9); err != nil {
		f.Fatal(err)
	}
	if err := encodeLegacyGeneration(&legacy, 9, sample); err != nil {
		f.Fatal(err)
	}
	if err := (generation{}).write(&empty, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(container.Bytes())
	f.Add(legacy.Bytes())
	f.Add(empty.Bytes())
	bad := badGenerations(f, db)
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(bad[name])
	}
	full, err := db.Vocabulary().SetOf(db.Vocabulary().Names()...)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := New(db, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if err := b.loadGeneration(data); err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("refusal %v is not ErrCorruptCheckpoint", err)
			}
			if n := len(b.List()); n != 0 {
				t.Fatalf("refused generation restored %d streams", n)
			}
			return
		}
		var once, twice bytes.Buffer
		if err := b.capture().write(&once, 1); err != nil {
			t.Fatalf("loaded state does not encode: %v", err)
		}
		again, err := decodeGeneration(once.Bytes())
		if err != nil {
			t.Fatalf("re-encoded generation refused: %v", err)
		}
		if err := again.write(&twice, 1); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not stable (%v)", err)
		}
		for _, sh := range b.shards {
			sh.mu.Lock()
			for _, st := range sh.streams {
				for i := range st.atts {
					st.atts[i].step(0)
					st.atts[i].step(full)
				}
			}
			sh.mu.Unlock()
		}
	})
}
