package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"contractdb/internal/vocab"
)

// FuzzStreamRecord feeds arbitrary bytes to the journal record
// decoders. A record is either refused with errCorruptRecord or
// decodes, and then its re-encoding decodes to the same values and
// re-encodes to the same bytes; it never panics. The seeds hold
// well-formed records and two hostile counts: a contract count of 2^62
// and a snapshot count of 2^61, whose 8*n overflows to zero.
func FuzzStreamRecord(f *testing.F) {
	f.Add(recCreate, encodeCreate(nil, "s", []string{"A", "B"}))
	f.Add(recCreate, encodeCreate(nil, "", nil))
	f.Add(recEvents, encodeEvents(nil, "s", 3, []vocab.Set{1, 6, 0}))
	f.Add(recEvents, encodeEvents(nil, "s", 0, nil))
	f.Add(recCreate, binary.AppendUvarint(appendString(nil, "s"), 1<<62))
	f.Add(recEvents, binary.AppendUvarint(binary.AppendUvarint(appendString(nil, "s"), 0), 1<<61))

	f.Fuzz(func(t *testing.T, typ byte, data []byte) {
		// decode returns the record's values and their re-encoding.
		var decode func([]byte) (any, []byte, error)
		if typ == recCreate {
			decode = func(b []byte) (any, []byte, error) {
				name, contracts, err := decodeCreate(b)
				return []any{name, contracts}, encodeCreate(nil, name, contracts), err
			}
		} else {
			decode = func(b []byte) (any, []byte, error) {
				name, first, snaps, err := decodeEvents(b)
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
