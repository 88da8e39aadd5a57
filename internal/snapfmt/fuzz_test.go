package snapfmt

import (
	"bytes"
	"os"
	"testing"
)

// FuzzParse throws arbitrary bytes at the container decoder. The
// invariant under fuzzing is "refuse, never crash": Parse must return
// an error or a File, and an accepted File's sections must all sit
// inside the buffer so slab adoption cannot walk off the end. The
// seeds include a framing-v2 container, a framing-v1 one and the
// contract store's formatVersion-5 golden snapshot.
func FuzzParse(f *testing.F) {
	var w Writer
	w.SetHead([]byte("seed"))
	w.AddSection(1, AppendSlice[int32](nil, []int32{1, 2, 3}))
	w.AddSection(7, AppendSlice[uint64](nil, []uint64{9}))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(bytes.Repeat([]byte{0}, 64))
	v5, err := os.ReadFile("../core/testdata/snapshot-v5.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v5)
	f.Add(framingV1(bytes.Clone(buf.Bytes())))

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := Parse(data)
		if err != nil {
			return
		}
		if len(parsed.Head) > len(data) {
			t.Fatalf("head longer than input: %d > %d", len(parsed.Head), len(data))
		}
		for _, s := range parsed.Sections {
			if s.Off+s.Len > uint64(len(data)) {
				t.Fatalf("section kind %d spans [%d, %d) beyond %d input bytes", s.Kind, s.Off, s.Off+s.Len, len(data))
			}
			if s.Off%8 != 0 {
				t.Fatalf("accepted misaligned section at %d", s.Off)
			}
			b, ok := parsed.Section(s.Kind)
			if !ok || uint64(len(b)) != s.Len {
				t.Fatalf("Section(%d) disagreed with directory", s.Kind)
			}
		}
	})
}
