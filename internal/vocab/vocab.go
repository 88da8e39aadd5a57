// Package vocab implements the shared event vocabulary of a contract
// database.
//
// Contracts and queries refer to a common set of named events (e.g.
// "purchase", "refund", "dateChange"). The vocabulary interns event
// names to small integer identifiers so that the rest of the system can
// represent sets of events and literals as 64-bit bitsets. A vocabulary
// holds at most MaxEvents events; the paper's experiments use 20.
package vocab

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// MaxEvents is the maximum number of events a vocabulary can hold.
// The limit allows event sets to be represented as single uint64
// bitsets throughout the system.
const MaxEvents = 64

// EventID identifies an event within a Vocabulary. IDs are dense,
// starting at 0 in registration order.
type EventID int

// Set is a bitset of event IDs. Bit i is set iff event with ID i is a
// member.
type Set uint64

// Vocabulary interns event names. The zero value is not usable; call
// New.
//
// A Vocabulary is safe for concurrent use. This matters because one
// vocabulary is shared across every lock domain that refers to it:
// registrations intern events off the database lock, and query
// translation may intern atoms while the owning database holds just a
// read lock.
type Vocabulary struct {
	mu    sync.RWMutex
	names []string
	ids   map[string]EventID
}

// New returns an empty vocabulary.
func New() *Vocabulary {
	return &Vocabulary{ids: make(map[string]EventID)}
}

// FromNames builds a vocabulary containing the given events in order.
func FromNames(names ...string) (*Vocabulary, error) {
	v := New()
	for _, n := range names {
		if _, err := v.Add(n); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// MustFromNames is FromNames, panicking on error. Intended for tests
// and examples with fixed, known-good vocabularies.
func MustFromNames(names ...string) *Vocabulary {
	v, err := FromNames(names...)
	if err != nil {
		panic(err)
	}
	return v
}

// Add interns name, returning its ID. Adding an existing name returns
// the existing ID. Adding the MaxEvents+1'th distinct name fails.
func (v *Vocabulary) Add(name string) (EventID, error) {
	if name == "" {
		return 0, fmt.Errorf("vocab: empty event name")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[name]; ok {
		return id, nil
	}
	if len(v.names) >= MaxEvents {
		return 0, fmt.Errorf("vocab: vocabulary full (%d events)", MaxEvents)
	}
	id := EventID(len(v.names))
	v.names = append(v.names, name)
	v.ids[name] = id
	return id, nil
}

// Lookup returns the ID for name, and whether it exists.
func (v *Vocabulary) Lookup(name string) (EventID, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.ids[name]
	return id, ok
}

// LookupBytes is Lookup for a name held as bytes; it does not
// allocate.
func (v *Vocabulary) LookupBytes(name []byte) (EventID, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.ids[string(name)]
	return id, ok
}

// Name returns the name of an event ID. It panics on an out-of-range
// ID, which always indicates a programming error (IDs are only minted
// by Add).
func (v *Vocabulary) Name(id EventID) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.names[id]
}

// Len returns the number of interned events.
func (v *Vocabulary) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.names)
}

// Names returns the event names in ID order. The returned slice is a
// copy.
func (v *Vocabulary) Names() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, len(v.names))
	copy(out, v.names)
	return out
}

// SetOf builds a Set from event names. Unknown names are reported as an
// error rather than silently ignored.
func (v *Vocabulary) SetOf(names ...string) (Set, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var s Set
	for _, n := range names {
		id, ok := v.ids[n]
		if !ok {
			return 0, fmt.Errorf("vocab: unknown event %q", n)
		}
		s = s.With(id)
	}
	return s, nil
}

// With returns s with id added.
func (s Set) With(id EventID) Set { return s | 1<<uint(id) }

// Without returns s with id removed.
func (s Set) Without(id EventID) Set { return s &^ (1 << uint(id)) }

// Has reports whether id is a member of s.
func (s Set) Has(id EventID) bool { return s&(1<<uint(id)) != 0 }

// Union returns the union of s and t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns the intersection of s and t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns the members of s not in t.
func (s Set) Minus(t Set) Set { return s &^ t }

// SubsetOf reports whether every member of s is in t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// IsEmpty reports whether s has no members.
func (s Set) IsEmpty() bool { return s == 0 }

// Len returns the number of members.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// IDs returns the members in increasing order.
func (s Set) IDs() []EventID {
	out := make([]EventID, 0, s.Len())
	for x := uint64(s); x != 0; x &= x - 1 {
		out = append(out, EventID(bits.TrailingZeros64(x)))
	}
	return out
}

// ForEach calls f for every member in increasing order, stopping early
// when f returns false. Unlike IDs it allocates nothing, so it is the
// iteration to use on hot paths.
func (s Set) ForEach(f func(EventID) bool) {
	for x := uint64(s); x != 0; x &= x - 1 {
		if !f(EventID(bits.TrailingZeros64(x))) {
			return
		}
	}
}

// String formats s against no vocabulary, as a sorted list of bit
// indices. Use Format for named output.
func (s Set) String() string {
	ids := s.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Format renders s using event names from v, sorted by name.
func (s Set) Format(v *Vocabulary) string {
	names := make([]string, 0, s.Len())
	for _, id := range s.IDs() {
		names = append(names, v.Name(id))
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}
