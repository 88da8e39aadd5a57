package buchi

import "math/bits"

// KeyTable maps keys of three words — a label, or a label with a
// target or with acceptance marks — to int32 values, by open
// addressing over generation-stamped slots. Reset empties it in O(1),
// so the builders that index every row or every automaton anew pay no
// clear and no map hashing. A table starts small and doubles as keys
// arrive, so its probes stay in cache however large an earlier use
// grew it; a reused table allocates only while it grows. The zero
// value is ready after Reset.
type KeyTable struct {
	slots []keySlot
	moved []keySlot // grow's scratch
	mask  uint64    // the slots in use since Reset are slots[:mask+1]
	gen   uint32
	used  int32 // slots occupied since Reset
	n     int32 // ids ID has handed out since Reset
}

// keySlot is occupied when its gen is the table's; val −1 marks a key
// Take removed.
type keySlot struct {
	key [3]uint64
	val int32
	gen uint32
}

const minKeySlots = 32

// Reset empties t.
func (t *KeyTable) Reset() {
	if len(t.slots) < minKeySlots {
		t.slots = make([]keySlot, minKeySlots)
	}
	t.bump()
	t.mask, t.used, t.n = minKeySlots-1, 0, 0
}

// bump starts a new generation, emptying every slot.
func (t *KeyTable) bump() {
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// Bytes returns the size of t's slots, for pools that drop large
// scratch.
func (t *KeyTable) Bytes() int { return 32 * (len(t.slots) + cap(t.moved)) }

func (t *KeyTable) slot(k [3]uint64) *keySlot {
	h := (k[0] ^ bits.RotateLeft64(k[1], 21) ^ bits.RotateLeft64(k[2], 42)) * 0x9e3779b97f4a7c15
	for i := (h ^ h>>32) & t.mask; ; i = (i + 1) & t.mask {
		if s := &t.slots[i]; s.gen != t.gen || s.key == k {
			return s
		}
	}
}

// claim returns k's slot, occupying a free one (val −1) when k is
// absent, and reports whether it was.
func (t *KeyTable) claim(k [3]uint64) (*keySlot, bool) {
	s := t.slot(k)
	if s.gen == t.gen {
		return s, false
	}
	if 2*int(t.used+1) > int(t.mask+1) {
		t.grow()
		s = t.slot(k)
	}
	t.used++
	*s = keySlot{key: k, val: -1, gen: t.gen}
	return s, true
}

// grow doubles the slots in use, moving the occupied ones and dropping
// removed keys.
func (t *KeyTable) grow() {
	t.moved = t.moved[:0]
	for _, s := range t.slots[:t.mask+1] {
		if s.gen == t.gen && s.val >= 0 {
			t.moved = append(t.moved, s)
		}
	}
	size := 2 * int(t.mask+1)
	if len(t.slots) < size {
		t.slots = append(t.slots, make([]keySlot, size-len(t.slots))...)
	}
	t.bump()
	t.mask, t.used = uint64(size-1), int32(len(t.moved))
	for _, s := range t.moved {
		s.gen = t.gen
		*t.slot(s.key) = s
	}
}

// ID returns k's id, numbering keys densely in the order they are
// first seen.
func (t *KeyTable) ID(k [3]uint64) int32 {
	s, fresh := t.claim(k)
	if fresh {
		s.val = t.n
		t.n++
	}
	return s.val
}

// Put sets k's value to v ≥ 0.
func (t *KeyTable) Put(k [3]uint64, v int32) {
	s, _ := t.claim(k)
	s.val = v
}

// Take removes k, returning the value it held.
func (t *KeyTable) Take(k [3]uint64) (int32, bool) {
	s := t.slot(k)
	if s.gen != t.gen || s.val < 0 {
		return 0, false
	}
	v := s.val
	s.val = -1
	return v, true
}
