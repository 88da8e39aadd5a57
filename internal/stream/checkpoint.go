package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"contractdb/internal/snapfmt"
)

// Checkpoint generations.
//
// A generation is a snapfmt container, the contract store's framing:
// magic, a CRC32C over the head and per section, a checksummed section
// directory and a footer. Its head is generationTag followed by the
// format and the boundary as uvarints; the boundary there is
// informational and the file name decides. Two sections hold
// uvarint-packed records:
//
//	secContracts  count, then every contract name any stream attaches,
//	              sorted, each length-prefixed
//	secStreams    count, then per stream in name order:
//	                name, length-prefixed
//	                attachment count, then per attachment: its contract's
//	                index in secContracts, the automaton size n it was
//	                captured at, its status code, and its frontier as
//	                wordsFor(n) words
//	                applied-event count
//	                verdict count, then per verdict: the index of its
//	                contract among the stream's attachments, its event
//	                index less the previous verdict's, and from<<2 | to,
//	                where to is the status code and from is 0 for the
//	                initial verdict and the status code plus one after
//
// A verdict's Seq is its position plus one (Verdicts serves `after` by
// index), so it is implied, not stored. The bytes depend only on the
// broker's state, never on its shard count or map order.
//
// Format 1, the gob-encoded snapshotFile of earlier builds, is still
// read and never written, as recEventsRaw records are replayed.
//
// Both decoders bound every count by the bytes left before they
// allocate, and check status codes and automaton sizes as they convert
// them. Their output then passes one validation before anything is
// restored: stream names valid and strictly ascending, at least one
// attachment per stream, no frontier bit at or past its automaton
// size, verdict sequence numbers consecutive, event indexes
// nondecreasing and at most the applied count, and every verdict's
// contract attached and its statuses named. A generation failing any
// of it is refused whole with ErrCorruptCheckpoint, and recovery falls
// back to the older one. Restore installs a frontier only into an
// automaton of the size it was captured at, so every bit names a state.
const (
	generationTag = "ctdb streams\n"
	// legacyFormat is the gob generation earlier builds wrote;
	// generationFormat is the container Checkpoint writes.
	legacyFormat     = 1
	generationFormat = 2

	secContracts uint32 = 1
	secStreams   uint32 = 2

	// maxStates bounds a recorded automaton size, so that wordsFor
	// cannot overflow on it.
	maxStates = math.MaxInt32
)

// ErrCorruptCheckpoint reports a checkpoint generation that cannot be
// restored: damaged framing, a failed checksum, or contents that break
// the generation's rules. Recovery skips such a generation for the
// next older one.
var ErrCorruptCheckpoint = errors.New("stream: corrupt checkpoint")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptCheckpoint, fmt.Sprintf(format, args...))
}

// generation is a checkpoint's content: what capture takes from a
// quiesced broker, what both decoders produce, and what restore
// installs.
type generation struct {
	streams []streamState
}

// streamState is one stream's checkpointed state. frontiers holds the
// attachments' frontier words in order, wordsFor(states) each.
type streamState struct {
	name      string
	atts      []attState
	frontiers []uint64
	events    uint64
	verdicts  []Verdict
}

// attState is one attachment's checkpointed state. states is the
// automaton size at capture: a contract re-registered under the same
// name with another size is restored to its initial frontier, since
// the recorded one indexes another state space.
type attState struct {
	contract string
	states   int
	status   Status
}

// snapshotFile and streamSnap are the format-1 generation, gob-encoded
// by earlier builds. They are decoded, never encoded.
type snapshotFile struct {
	Format   int
	Boundary uint64
	Streams  []streamSnap
}

type streamSnap struct {
	Name      string
	Contracts []string
	States    []int
	Frontiers [][]uint64
	Statuses  []int
	Events    uint64
	Verdicts  []Verdict
}

// capture takes every stream's checkpointable state. Callers hold
// every ingestMu with queues drained, so it is a consistent cut; shard
// mutexes still guard against concurrent readers. Frontier words are
// copied. Contract names and verdicts are not: a stream never changes
// its contracts or a verdict once appended, and the captured history
// is capped at its length, so later appends never reach it.
func (b *Broker) capture() generation {
	count := 0
	for _, sh := range b.shards {
		sh.mu.Lock()
		count += len(sh.streams)
		sh.mu.Unlock()
	}
	gen := generation{streams: make([]streamState, 0, count)}
	// Every stream has at least one attachment of at least one word.
	words := make([]uint64, 0, count)
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, st := range sh.streams {
			n := len(st.verdicts)
			ss := streamState{
				name:     st.name,
				atts:     make([]attState, len(st.atts)),
				events:   st.events,
				verdicts: st.verdicts[:n:n],
			}
			for i := range st.atts {
				a := &st.atts[i]
				ss.atts[i] = attState{contract: st.contracts[i], states: a.g.auto.NumStates(), status: a.status}
				words = a.appendFrontier(words)
			}
			gen.streams = append(gen.streams, ss)
		}
		sh.mu.Unlock()
	}
	gen.cutFrontiers(words)
	return gen
}

// cutFrontiers hands each stream its share of words, which holds every
// frontier in stream and attachment order. The shares are cut once
// words is complete, since growing it moves it.
func (gen generation) cutFrontiers(words []uint64) {
	for i := range gen.streams {
		ss := &gen.streams[i]
		n := 0
		for _, a := range ss.atts {
			n += wordsFor(a.states)
		}
		ss.frontiers, words = words[:n:n], words[n:]
	}
}

// write encodes the generation covering every record below boundary
// as a container. It sorts the streams by name.
func (gen generation) write(w io.Writer, boundary uint64) error {
	sort.Slice(gen.streams, func(i, j int) bool { return gen.streams[i].name < gen.streams[j].name })
	index := map[string]uint64{}
	for _, ss := range gen.streams {
		for _, a := range ss.atts {
			index[a.contract] = 0
		}
	}
	names := make([]string, 0, len(index))
	for c := range index {
		names = append(names, c)
	}
	sort.Strings(names)
	table := binary.AppendUvarint(nil, uint64(len(names)))
	for i, c := range names {
		index[c] = uint64(i)
		table = appendString(table, c)
	}

	body := binary.AppendUvarint(nil, uint64(len(gen.streams)))
	for _, ss := range gen.streams {
		body = appendString(body, ss.name)
		body = binary.AppendUvarint(body, uint64(len(ss.atts)))
		words := ss.frontiers
		for _, a := range ss.atts {
			body = binary.AppendUvarint(body, index[a.contract])
			body = binary.AppendUvarint(body, uint64(a.states))
			body = binary.AppendUvarint(body, uint64(a.status))
			n := wordsFor(a.states)
			for _, w := range words[:n] {
				body = binary.AppendUvarint(body, w)
			}
			words = words[n:]
		}
		body = binary.AppendUvarint(body, ss.events)
		body = binary.AppendUvarint(body, uint64(len(ss.verdicts)))
		var at uint64
		for i, v := range ss.verdicts {
			c, code, ok := ss.verdictCode(v)
			if !ok {
				return fmt.Errorf("stream: checkpoint: stream %q verdict %d (%s: %q to %q) cannot be encoded", ss.name, i+1, v.Contract, v.From, v.To)
			}
			body = binary.AppendUvarint(body, c)
			body = binary.AppendUvarint(body, v.EventIndex-at)
			body = binary.AppendUvarint(body, code)
			at = v.EventIndex
		}
	}

	head := binary.AppendUvarint([]byte(generationTag), generationFormat)
	head = binary.AppendUvarint(head, boundary)
	var fw snapfmt.Writer
	fw.SetHead(head)
	fw.AddSection(secContracts, table)
	fw.AddSection(secStreams, body)
	_, err := fw.WriteTo(w)
	return err
}

// verdictCode returns the verdict's attachment index and status code;
// ok is false if its contract is not attached or a status is unnamed.
func (ss *streamState) verdictCode(v Verdict) (att, code uint64, ok bool) {
	to, ok := parseStatus(v.To)
	if !ok {
		return 0, 0, false
	}
	if v.From != "" {
		from, ok := parseStatus(v.From)
		if !ok {
			return 0, 0, false
		}
		code = (uint64(from) + 1) << 2
	}
	for i, a := range ss.atts {
		if a.contract == v.Contract {
			return uint64(i), code | uint64(to), true
		}
	}
	return 0, 0, false
}

// loadGeneration decodes a generation and restores its streams. A
// refused generation changes nothing.
func (b *Broker) loadGeneration(data []byte) error {
	gen, err := decodeGeneration(data)
	if err != nil {
		return err
	}
	for _, ss := range gen.streams {
		b.restoreStream(ss)
	}
	return nil
}

// restoreStream rebuilds one checkpointed stream: shared automaton
// groups re-resolved by contract name, frontier words copied into
// fresh arena slots. A contract that no longer resolves drops the
// stream (logged); a changed automaton resets that attachment.
func (b *Broker) restoreStream(ss streamState) {
	sh := b.shardFor(ss.name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	groups := make([]*group, len(ss.atts))
	for i, a := range ss.atts {
		g, err := sh.groupFor(a.contract)
		if err != nil {
			b.met.Dropped.Inc()
			b.logf("stream: recovery: stream %q: %v; stream dropped", ss.name, err)
			return
		}
		groups[i] = g
	}
	st := &stream{
		name:      ss.name,
		contracts: make([]string, len(ss.atts)),
		atts:      make([]attachment, len(ss.atts)),
		notify:    make(chan struct{}),
		verdicts:  ss.verdicts,
	}
	words := ss.frontiers
	for i, g := range groups {
		saved := ss.atts[i]
		n := wordsFor(saved.states)
		st.contracts[i] = saved.contract
		g.refs++
		a := attachment{g: g, slot: g.alloc()}
		if saved.states == g.auto.NumStates() {
			a.setFrontier(words[:n])
			a.status = saved.status
		} else {
			a.status = g.initialStatus()
			b.logf("stream: recovery: stream %q contract %q automaton changed; frontier reset", ss.name, g.contract)
		}
		words = words[n:]
		st.atts[i] = a
	}
	st.events = ss.events
	st.accepted.Store(ss.events)
	sh.streams[ss.name] = st
}

// decodeGeneration decodes a generation of either format and
// validates it.
func decodeGeneration(data []byte) (generation, error) {
	decode := decodeLegacy
	if snapfmt.Sniff(data) {
		decode = decodeContainer
	}
	gen, err := decode(data)
	if err != nil {
		return generation{}, err
	}
	return gen, gen.validate()
}

func decodeContainer(data []byte) (generation, error) {
	f, err := snapfmt.Parse(data)
	if err != nil {
		return generation{}, fmt.Errorf("%w: %w", ErrCorruptCheckpoint, err)
	}
	head, ok := bytes.CutPrefix(f.Head, []byte(generationTag))
	if !ok {
		return generation{}, corruptf("not a stream generation")
	}
	r := reader{b: head}
	if format := r.uvarint("format"); r.err == nil && format != generationFormat {
		return generation{}, corruptf("format %d, want %d", format, generationFormat)
	}
	r.uvarint("boundary")
	if r.err != nil {
		return generation{}, r.err
	}
	table, ok := f.Section(secContracts)
	body, ok2 := f.Section(secStreams)
	if !ok || !ok2 {
		return generation{}, corruptf("a section is missing")
	}

	r = reader{b: table}
	names := make([]string, r.count("contract count", 1))
	for i := range names {
		names[i] = r.string("contract name")
	}
	r.end("contract table")
	if r.err != nil {
		return generation{}, r.err
	}

	r = reader{b: body}
	// A stream takes at least 8 bytes: its name, attachment count, one
	// attachment of 4 (contract, size, status, a word), event count
	// and verdict count.
	gen := generation{streams: make([]streamState, r.count("stream count", 8))}
	var words []uint64
	for i := range gen.streams {
		ss := &gen.streams[i]
		ss.name = r.string("stream name")
		ss.atts = make([]attState, r.count("attachment count", 4))
		for j := range ss.atts {
			a := &ss.atts[j]
			if c := r.uvarint("contract index"); c < uint64(len(names)) {
				a.contract = names[c]
			} else {
				r.fail("contract index out of range")
			}
			if n := r.uvarint("automaton size"); n <= maxStates {
				a.states = int(n)
			} else {
				r.fail("automaton size out of range")
			}
			if s := r.uvarint("status"); s < uint64(numStatuses) {
				a.status = Status(s)
			} else {
				r.fail("status out of range")
			}
			n := wordsFor(a.states)
			if n > len(r.b) {
				r.fail("frontier past the bytes left")
			}
			for ; n > 0 && r.err == nil; n-- {
				words = append(words, r.uvarint("frontier word"))
			}
		}
		ss.events = r.uvarint("event count")
		ss.verdicts = make([]Verdict, r.count("verdict count", 3))
		var at uint64
		for j := range ss.verdicts {
			v := &ss.verdicts[j]
			v.Seq = j + 1
			if c := r.uvarint("verdict contract"); c < uint64(len(ss.atts)) {
				v.Contract = ss.atts[c].contract
			} else {
				r.fail("verdict contract out of range")
			}
			// A wrapped sum decreases, which validate refuses.
			at += r.uvarint("verdict event index")
			v.EventIndex = at
			code := r.uvarint("verdict statuses")
			if from, to := code>>2, code&3; from <= uint64(numStatuses) && to < uint64(numStatuses) {
				v.To = Status(to).String()
				if from > 0 {
					v.From = Status(from - 1).String()
				}
			} else {
				r.fail("verdict statuses out of range")
			}
		}
	}
	r.end("stream records")
	if r.err != nil {
		return generation{}, r.err
	}
	gen.cutFrontiers(words)
	return gen, nil
}

func decodeLegacy(data []byte) (generation, error) {
	var snap snapshotFile
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return generation{}, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	if snap.Format != legacyFormat {
		return generation{}, corruptf("format %d, want %d", snap.Format, legacyFormat)
	}
	gen := generation{streams: make([]streamState, len(snap.Streams))}
	var words []uint64
	for i, s := range snap.Streams {
		n := len(s.Contracts)
		if len(s.States) != n || len(s.Frontiers) != n || len(s.Statuses) != n {
			return generation{}, corruptf("stream %q has %d contracts, %d automaton sizes, %d frontiers and %d statuses",
				s.Name, n, len(s.States), len(s.Frontiers), len(s.Statuses))
		}
		ss := streamState{name: s.Name, atts: make([]attState, n), events: s.Events, verdicts: s.Verdicts}
		for j, c := range s.Contracts {
			states, status := s.States[j], s.Statuses[j]
			if states < 0 || states > maxStates || len(s.Frontiers[j]) != wordsFor(states) {
				return generation{}, corruptf("stream %q contract %q: %d frontier words for %d states", s.Name, c, len(s.Frontiers[j]), states)
			}
			if status < 0 || status >= int(numStatuses) {
				return generation{}, corruptf("stream %q contract %q: status %d out of range", s.Name, c, status)
			}
			ss.atts[j] = attState{contract: c, states: states, status: Status(status)}
			words = append(words, s.Frontiers[j]...)
		}
		gen.streams[i] = ss
	}
	gen.cutFrontiers(words)
	return gen, nil
}

// validate checks what restore and the next write rely on that the
// decoders did not check as they converted; see the format comment.
func (gen generation) validate() error {
	for i, ss := range gen.streams {
		if err := validName(ss.name); err != nil {
			return fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
		}
		if i > 0 && ss.name <= gen.streams[i-1].name {
			return corruptf("stream %q out of order after %q", ss.name, gen.streams[i-1].name)
		}
		if len(ss.atts) == 0 {
			return corruptf("stream %q has no contracts", ss.name)
		}
		words := ss.frontiers
		for _, a := range ss.atts {
			n := wordsFor(a.states)
			if used := a.states - 64*(n-1); used < 64 && words[n-1]>>used != 0 {
				return corruptf("stream %q contract %q: frontier bit past its %d states", ss.name, a.contract, a.states)
			}
			words = words[n:]
		}
		var at uint64
		for j, v := range ss.verdicts {
			if v.Seq != j+1 {
				return corruptf("stream %q verdict %d has seq %d", ss.name, j+1, v.Seq)
			}
			if v.EventIndex < at || v.EventIndex > ss.events {
				return corruptf("stream %q verdict %d at event %d, after event %d, of %d applied", ss.name, v.Seq, v.EventIndex, at, ss.events)
			}
			if _, _, ok := ss.verdictCode(v); !ok {
				return corruptf("stream %q verdict %d (%s: %q to %q) names an unattached contract or an unknown status", ss.name, v.Seq, v.Contract, v.From, v.To)
			}
			at = v.EventIndex
		}
	}
	return nil
}

// reader decodes uvarint-packed bytes. Its first failure sticks: later
// reads return zero values, and counts zero.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = corruptf("%s", what)
	}
	r.b = nil
}

func (r *reader) uvarint(what string) uint64 {
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.fail(what + ": truncated or overlong uvarint")
		return 0
	}
	r.b = r.b[k:]
	return v
}

// count reads the count of items that take at least min bytes each,
// refusing one the bytes left cannot hold.
func (r *reader) count(what string, min int) int {
	n := r.uvarint(what)
	if n > uint64(len(r.b)/min) {
		r.fail(what + " past the bytes left")
		return 0
	}
	return int(n)
}

func (r *reader) string(what string) string {
	n := r.count(what, 1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// end refuses bytes left past the last record.
func (r *reader) end(what string) {
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Sprintf("%d bytes past the %s", len(r.b), what))
	}
}
