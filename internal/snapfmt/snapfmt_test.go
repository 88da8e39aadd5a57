package snapfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"unsafe"
)

func buildContainer(t *testing.T) []byte {
	t.Helper()
	var w Writer
	w.SetHead([]byte("head-gob-bytes"))
	w.AddSection(1, AppendSlice[int32](nil, []int32{0, 2, 5, -7}))
	w.AddSection(2, AppendSlice[uint64](nil, []uint64{1, 1 << 63, 42}))
	w.AddSection(3, nil) // empty sections are legal
	w.AddSection(4, []byte{0, 1, 1, 0, 1})
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildContainer(t)
	if !Sniff(data) {
		t.Fatal("Sniff rejected a valid container")
	}
	f, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if string(f.Head) != "head-gob-bytes" {
		t.Fatalf("head = %q", f.Head)
	}
	if len(f.Sections) != 4 {
		t.Fatalf("sections = %d, want 4", len(f.Sections))
	}
	for _, s := range f.Sections {
		if s.Off%8 != 0 {
			t.Fatalf("section kind %d at unaligned offset %d", s.Kind, s.Off)
		}
	}
	b1, ok := f.Section(1)
	if !ok {
		t.Fatal("section 1 missing")
	}
	got32, err := ViewSlice[int32](b1)
	if err != nil {
		t.Fatalf("ViewSlice[int32]: %v", err)
	}
	if want := []int32{0, 2, 5, -7}; len(got32) != len(want) || got32[3] != -7 || got32[1] != 2 {
		t.Fatalf("int32 slab = %v, want %v", got32, want)
	}
	if HostZeroCopy() {
		if unsafe.SliceData(got32) != (*int32)(unsafe.Pointer(unsafe.SliceData(b1))) {
			t.Fatal("ViewSlice copied on a little-endian host")
		}
		if cap(got32) != len(got32) {
			t.Fatalf("ViewSlice cap %d != len %d; append would scribble on the slab", cap(got32), len(got32))
		}
	}
	b2, _ := f.Section(2)
	got64, err := ViewSlice[uint64](b2)
	if err != nil {
		t.Fatalf("ViewSlice[uint64]: %v", err)
	}
	if got64[1] != 1<<63 {
		t.Fatalf("uint64 slab = %v", got64)
	}
	if b3, ok := f.Section(3); !ok || len(b3) != 0 {
		t.Fatalf("empty section: ok=%v len=%d", ok, len(b3))
	}
	if _, ok := f.Section(99); ok {
		t.Fatal("Section(99) found a section that was never written")
	}
	if f.SlabBytes() != 16+24+0+5 {
		t.Fatalf("SlabBytes = %d", f.SlabBytes())
	}
}

func TestCopySliceMatchesView(t *testing.T) {
	in := []int64{-1, 0, 1 << 40, 7}
	raw := AppendSlice[int64](nil, in)
	viewed, err := ViewSlice[int64](raw)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := CopySlice[int64](raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if viewed[i] != in[i] || copied[i] != in[i] {
			t.Fatalf("element %d: view=%d copy=%d want=%d", i, viewed[i], copied[i], in[i])
		}
	}
}

func TestWriteDeterministic(t *testing.T) {
	a := buildContainer(t)
	b := buildContainer(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical writes produced different bytes")
	}
}

// TestHostile corrupts a valid container in every way the framing
// must detect, and asserts each refusal carries its named error.
func TestHostile(t *testing.T) {
	base := buildContainer(t)
	dirOff := binary.LittleEndian.Uint64(base[len(base)-32:])

	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantErr error
	}{
		{"not a container", func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}, ErrNotContainer},
		{"bad framing version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 99)
			return b
		}, ErrVersion},
		{"truncated mid-section", func(b []byte) []byte {
			return b[:dirOff-4]
		}, ErrTruncated},
		{"truncated to header only", func(b []byte) []byte {
			return b[:24]
		}, ErrTruncated},
		{"head overruns file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], uint64(len(b)))
			return b
		}, ErrTruncated},
		{"footer magic clobbered", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}, ErrTruncated},
		{"directory overruns file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-24:], 1<<40)
			return b
		}, ErrDirectory},
		{"directory offset before slabs", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-32:], 0)
			return b
		}, ErrDirectory},
		{"directory checksum mismatch", func(b []byte) []byte {
			b[dirOff+8] ^= 0xff // first entry's kind field
			return b
		}, ErrDirectory},
		{"section checksum mismatch", func(b []byte) []byte {
			// Flip a byte inside the first section's payload and fix up
			// the directory CRC so only the section check can catch it.
			off := binary.LittleEndian.Uint64(b[dirOff+8+8:])
			b[off] ^= 0xff
			dirLen := binary.LittleEndian.Uint64(b[len(b)-24:])
			binary.LittleEndian.PutUint32(b[len(b)-16:], crcOf(b[dirOff:dirOff+dirLen]))
			return b
		}, ErrSectionCRC},
		{"misaligned section offset", func(b []byte) []byte {
			e := b[dirOff+8:] // first directory entry
			binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])+1)
			dirLen := binary.LittleEndian.Uint64(b[len(b)-24:])
			binary.LittleEndian.PutUint32(b[len(b)-16:], crcOf(b[dirOff:dirOff+dirLen]))
			return b
		}, ErrMisaligned},
		{"section overruns slab region", func(b []byte) []byte {
			e := b[dirOff+8:]
			binary.LittleEndian.PutUint64(e[16:], 1<<40)
			dirLen := binary.LittleEndian.Uint64(b[len(b)-24:])
			binary.LittleEndian.PutUint32(b[len(b)-16:], crcOf(b[dirOff:dirOff+dirLen]))
			return b
		}, ErrSectionRange},
		{"duplicate section kind", func(b []byte) []byte {
			e1 := b[dirOff+8:]
			e2 := b[dirOff+8+24:]
			copy(e2[:24], e1[:24])
			dirLen := binary.LittleEndian.Uint64(b[len(b)-24:])
			binary.LittleEndian.PutUint32(b[len(b)-16:], crcOf(b[dirOff:dirOff+dirLen]))
			return b
		}, ErrDuplicateSection},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), base...))
			_, err := Parse(b)
			if err == nil {
				t.Fatal("Parse accepted a corrupt container")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Parse error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestHeadCRC: a framing-v2 head that fails its checksum is refused
// with ErrHeadCRC, while a framing-v1 file, written before the head
// was checksummed, still parses unchecked.
func TestHeadCRC(t *testing.T) {
	damaged := buildContainer(t)
	damaged[headerSize] ^= 1
	if _, err := Parse(damaged); !errors.Is(err, ErrHeadCRC) {
		t.Errorf("Parse of a damaged head = %v, want %v", err, ErrHeadCRC)
	}
	v1 := framingV1(buildContainer(t))
	v1[headerSize] ^= 1
	f, err := Parse(v1)
	if err != nil {
		t.Fatalf("framing-v1 file refused: %v", err)
	}
	if string(f.Head) != "iead-gob-bytes" {
		t.Fatalf("framing-v1 head = %q", f.Head)
	}
}

// framingV1 rewrites a container's header as framing version 1 wrote
// it: version 1 and a zero reserved word where v2 keeps the head CRC.
func framingV1(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[8:], 1)
	binary.LittleEndian.PutUint32(b[12:], 0)
	return b
}

func TestViewSliceRejectsRaggedLength(t *testing.T) {
	if _, err := ViewSlice[int32]([]byte{1, 2, 3}); err == nil {
		t.Fatal("ViewSlice accepted 3 bytes as []int32")
	}
	if _, err := CopySlice[uint64](make([]byte, 12)); err == nil {
		t.Fatal("CopySlice accepted 12 bytes as []uint64")
	}
}

func crcOf(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}
