package core

import (
	"fmt"
	"unsafe"

	"contractdb/internal/buchi"
	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
)

// Typed views over snapshot slabs. On a little-endian host every view
// of a v5 container aliases the snapshot buffer (zero-copy — the alloc
// test pins this); elsewhere the element-wise decode of snapfmt takes
// over. The buffer must therefore outlive the database: the store owns
// that lifetime when the buffer is a file mapping.

func init() {
	// The label slab reinterprets pairs of uint64 words as
	// buchi.Label values in place; that is only sound while Label is
	// exactly {Pos, Neg vocab.Set} with no padding. A third field
	// would silently corrupt every loaded label, so fail loudly.
	if unsafe.Sizeof(buchi.Label{}) != 16 || unsafe.Sizeof(vocab.Set(0)) != 8 {
		panic("core: buchi.Label layout changed; snapshot label slabs need a format bump")
	}
}

// viewLabels interprets a slab as []buchi.Label (Pos, Neg word
// pairs).
func viewLabels(b []byte) ([]buchi.Label, error) {
	words, err := snapfmt.ViewSlice[uint64](b)
	if err != nil {
		return nil, err
	}
	if len(words)%2 != 0 {
		return nil, fmt.Errorf("label slab holds %d words, want pairs", len(words))
	}
	n := len(words) / 2
	if n == 0 {
		return nil, nil
	}
	if snapfmt.HostZeroCopy() {
		ls := unsafe.Slice((*buchi.Label)(unsafe.Pointer(unsafe.SliceData(words))), n)
		return ls[:n:n], nil
	}
	ls := make([]buchi.Label, n)
	for i := range ls {
		ls[i] = buchi.Label{Pos: vocab.Set(words[2*i]), Neg: vocab.Set(words[2*i+1])}
	}
	return ls, nil
}

// viewBools interprets a 0/1 byte slab as []bool. Every byte is
// validated before the cast: a bool holding 2 is undefined behavior
// in comparisons, so a hostile slab must not reach one.
func viewBools(b []byte) ([]bool, error) {
	for i, v := range b {
		if v > 1 {
			return nil, fmt.Errorf("bool slab has byte %d at %d, want 0 or 1", v, i)
		}
	}
	if len(b) == 0 {
		return nil, nil
	}
	if snapfmt.HostZeroCopy() {
		bs := unsafe.Slice((*bool)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
		return bs[:len(b):len(b)], nil
	}
	bs := make([]bool, len(b))
	for i, v := range b {
		bs[i] = v == 1
	}
	return bs, nil
}

// narrowClasses copies a v4 int64 class slab into one int32 heap
// table, refusing values out of int32 range.
func narrowClasses(b []byte) ([]int32, error) {
	wide, err := snapfmt.ViewSlice[int64](b)
	if err != nil {
		return nil, err
	}
	narrow := make([]int32, len(wide))
	for i, v := range wide {
		if int64(int32(v)) != v {
			return nil, fmt.Errorf("class table value %d overflows int32", v)
		}
		narrow[i] = int32(v)
	}
	return narrow, nil
}

// appendLabels encodes labels as little-endian (Pos, Neg) word pairs.
func appendLabels(dst []uint64, ls []buchi.Label) []uint64 {
	for _, l := range ls {
		dst = append(dst, uint64(l.Pos), uint64(l.Neg))
	}
	return dst
}

// appendBools encodes bools as 0/1 bytes.
func appendBools(dst []byte, bs []bool) []byte {
	for _, v := range bs {
		if v {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}
