// Package snapfmt implements the flat container framing of snapshot
// formatVersion 4: a small opaque head (the core package writes JSON
// there — gob's process-global type-ID counter makes its bytes
// history-dependent, which would break byte-determinism) followed by raw
// little-endian binary sections ("slabs"), each 8-byte aligned and
// CRC-framed, indexed by a section directory at the end of the file.
// The stream broker frames its checkpoint generations in it too, with
// uvarint-packed sections (internal/stream/checkpoint.go).
//
// The layout exists so that a loader can adopt the hot numeric tables
// of a snapshot — CSR edge arrays, partition class tables, prefilter
// postings — directly out of a memory-mapped file via unsafe.Slice
// reinterpretation, paying page-in cost instead of decode cost. The
// container itself is deliberately dumb: it knows byte ranges and
// checksums, never the meaning of a section. Byte layout:
//
//	offset 0      header (24 bytes):
//	                [8]  magic "ctdbFM4\n"
//	                u32  container version (1)
//	                u32  reserved (0)
//	                u64  head length H
//	offset 24     head: H opaque bytes (names, specs, options, counts)
//	              zero padding to the next 8-byte boundary
//	...           sections, each starting 8-byte aligned, zero-padded
//	              between; section payloads are raw little-endian
//	              arrays written by AppendSlice
//	dirOff        directory: u32 section count, u32 reserved, then per
//	              section 24 bytes: u32 kind, u32 crc (Castagnoli over
//	              the payload), u64 off, u64 len
//	end-32        footer (32 bytes):
//	                u64 dirOff, u64 dirLen
//	                u32 crc (Castagnoli over the directory bytes)
//	                u32 reserved (0)
//	                [8]  magic "\nMF4bdtc"
//
// Everything multi-byte is little-endian, including on big-endian
// hosts (the slab helpers fall back to an element-wise decode there).
// A reader parses the footer first, validates the directory against
// its checksum, then validates every section's range, alignment and
// checksum before returning — a hostile or truncated file produces a
// named error, never a crash and never a silent fallback.
package snapfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a v4 container. The trailing newline makes an
// accidental text-mode rewrite detectable.
const Magic = "ctdbFM4\n"

// footerMagic closes the file; its presence proves the file was
// written to completion (the footer is the last thing emitted).
const footerMagic = "\nMF4bdtc"

// Version is the container framing version this package writes and
// the only one it reads. It versions the *framing*; the semantic
// snapshot version travels in the head.
const Version = 1

const (
	headerSize = 24
	footerSize = 32
	entrySize  = 24
	dirAlign   = 8
)

// Section framing errors. Parse wraps these with positional detail;
// callers match with errors.Is. None of them may be treated as "not a
// v4 file": once the magic matches, a framing error is corruption and
// must refuse the file rather than fall back to another decoder.
var (
	// ErrNotContainer reports that the bytes do not start with the v4
	// magic — the one error that legitimately routes a loader to a
	// legacy (gob) decoder.
	ErrNotContainer = errors.New("snapfmt: not a v4 container")
	// ErrVersion reports a container framing version this build does
	// not read.
	ErrVersion = errors.New("snapfmt: unsupported container version")
	// ErrTruncated reports a file shorter than its framing claims:
	// missing footer, head or section bytes past end of file.
	ErrTruncated = errors.New("snapfmt: truncated container")
	// ErrDirectory reports a malformed section directory: bad footer
	// magic, directory range outside the file, bad directory checksum,
	// or a directory length that is not a whole number of entries.
	ErrDirectory = errors.New("snapfmt: malformed section directory")
	// ErrMisaligned reports a section whose offset is not 8-byte
	// aligned; adopting it via unsafe.Slice would be undefined.
	ErrMisaligned = errors.New("snapfmt: misaligned section")
	// ErrSectionRange reports a section whose byte range escapes the
	// slab region (overlapping the header, head, directory or footer).
	ErrSectionRange = errors.New("snapfmt: section out of range")
	// ErrSectionCRC reports a section whose payload fails its checksum.
	ErrSectionCRC = errors.New("snapfmt: section checksum mismatch")
	// ErrDuplicateSection reports two directory entries with one kind.
	ErrDuplicateSection = errors.New("snapfmt: duplicate section kind")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one directory entry.
type Section struct {
	Kind uint32
	Off  uint64
	Len  uint64
	CRC  uint32
}

// File is a parsed container. Head and the section payloads alias the
// buffer given to Parse — a caller adopting sections zero-copy must
// keep that buffer (or mapping) alive for as long as the slices live.
type File struct {
	Head     []byte
	Sections []Section
	data     []byte
}

// Sniff reports whether the bytes begin with the v4 container magic.
func Sniff(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Parse validates the whole container frame: header, footer,
// directory checksum, and every section's range, alignment and
// payload checksum. It does not interpret the head or the sections.
func Parse(data []byte) (*File, error) {
	if !Sniff(data) {
		return nil, ErrNotContainer
	}
	if len(data) < headerSize+footerSize {
		return nil, fmt.Errorf("%w: %d bytes cannot hold header and footer", ErrTruncated, len(data))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("%w: file has framing version %d, this build reads %d", ErrVersion, v, Version)
	}
	headLen := binary.LittleEndian.Uint64(data[16:])
	if headLen > uint64(len(data)-headerSize-footerSize) {
		return nil, fmt.Errorf("%w: head claims %d bytes, file has %d", ErrTruncated, headLen, len(data))
	}

	foot := data[len(data)-footerSize:]
	if string(foot[24:]) != footerMagic {
		return nil, fmt.Errorf("%w: footer magic missing (file truncated or overwritten)", ErrTruncated)
	}
	dirOff := binary.LittleEndian.Uint64(foot[0:])
	dirLen := binary.LittleEndian.Uint64(foot[8:])
	dirCRC := binary.LittleEndian.Uint32(foot[16:])
	slabStart := align8(headerSize + headLen)
	if dirOff < slabStart || dirOff%dirAlign != 0 ||
		dirLen > uint64(len(data)-footerSize) || dirOff > uint64(len(data)-footerSize)-dirLen {
		return nil, fmt.Errorf("%w: directory [%d, %d) does not fit the file", ErrDirectory, dirOff, dirOff+dirLen)
	}
	dir := data[dirOff : dirOff+dirLen]
	if crc32.Checksum(dir, castagnoli) != dirCRC {
		return nil, fmt.Errorf("%w: directory checksum mismatch", ErrDirectory)
	}
	if len(dir) < 8 || (len(dir)-8)%entrySize != 0 {
		return nil, fmt.Errorf("%w: directory length %d is not a whole number of entries", ErrDirectory, len(dir))
	}
	count := binary.LittleEndian.Uint32(dir)
	if int(count) != (len(dir)-8)/entrySize {
		return nil, fmt.Errorf("%w: directory claims %d sections, holds %d", ErrDirectory, count, (len(dir)-8)/entrySize)
	}

	f := &File{
		Head:     data[headerSize : headerSize+headLen],
		Sections: make([]Section, count),
		data:     data,
	}
	seen := make(map[uint32]bool, count)
	for i := range f.Sections {
		e := dir[8+i*entrySize:]
		s := Section{
			Kind: binary.LittleEndian.Uint32(e[0:]),
			CRC:  binary.LittleEndian.Uint32(e[4:]),
			Off:  binary.LittleEndian.Uint64(e[8:]),
			Len:  binary.LittleEndian.Uint64(e[16:]),
		}
		if seen[s.Kind] {
			return nil, fmt.Errorf("%w: kind %d", ErrDuplicateSection, s.Kind)
		}
		seen[s.Kind] = true
		if s.Off%dirAlign != 0 {
			return nil, fmt.Errorf("%w: section %d (kind %d) starts at offset %d", ErrMisaligned, i, s.Kind, s.Off)
		}
		if s.Off < slabStart || s.Off > dirOff || s.Len > dirOff-s.Off {
			return nil, fmt.Errorf("%w: section %d (kind %d) spans [%d, %d) outside slabs [%d, %d)",
				ErrSectionRange, i, s.Kind, s.Off, s.Off+s.Len, slabStart, dirOff)
		}
		if crc32.Checksum(data[s.Off:s.Off+s.Len], castagnoli) != s.CRC {
			return nil, fmt.Errorf("%w: section %d (kind %d)", ErrSectionCRC, i, s.Kind)
		}
		f.Sections[i] = s
	}
	return f, nil
}

// PeekHead returns the head bytes without validating the directory or
// any section checksum. It is the cheap path for dispatchers that
// only need the metadata (e.g. the format version) before
// handing the buffer to a full Parse; nothing returned by PeekHead
// may be used to adopt slabs.
func PeekHead(data []byte) ([]byte, error) {
	if !Sniff(data) {
		return nil, ErrNotContainer
	}
	if len(data) < headerSize+footerSize {
		return nil, fmt.Errorf("%w: %d bytes cannot hold header and footer", ErrTruncated, len(data))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("%w: file has framing version %d, this build reads %d", ErrVersion, v, Version)
	}
	headLen := binary.LittleEndian.Uint64(data[16:])
	if headLen > uint64(len(data)-headerSize-footerSize) {
		return nil, fmt.Errorf("%w: head claims %d bytes, file has %d", ErrTruncated, headLen, len(data))
	}
	return data[headerSize : headerSize+headLen], nil
}

// Section returns the payload bytes of the first section with the
// given kind, aliasing the parsed buffer. Missing sections return
// (nil, false); zero-length sections return (empty, true).
func (f *File) Section(kind uint32) ([]byte, bool) {
	for _, s := range f.Sections {
		if s.Kind == kind {
			return f.data[s.Off : s.Off+s.Len : s.Off+s.Len], true
		}
	}
	return nil, false
}

// SlabBytes sums the payload lengths of all sections.
func (f *File) SlabBytes() int64 {
	var total int64
	for _, s := range f.Sections {
		total += int64(s.Len)
	}
	return total
}

// Writer assembles a container in memory. Sections are buffered until
// WriteTo emits the whole frame in one pass; the output depends only
// on the head and section payloads (padding is zero), so equal inputs
// produce equal bytes.
type Writer struct {
	head     []byte
	sections []Section
	payloads [][]byte
}

// SetHead installs the serialized head. The bytes are not copied.
func (w *Writer) SetHead(head []byte) { w.head = head }

// AddSection appends a section. The payload is not copied; callers
// must not mutate it before WriteTo. Adding two sections of one kind
// is a programming error caught at Parse time.
func (w *Writer) AddSection(kind uint32, payload []byte) {
	w.sections = append(w.sections, Section{Kind: kind, Len: uint64(len(payload)), CRC: crc32.Checksum(payload, castagnoli)})
	w.payloads = append(w.payloads, payload)
}

var pad [dirAlign]byte

// WriteTo emits the container frame. It writes strictly forward (no
// seeking), so any io.Writer works, including a file being streamed
// through a hasher.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var n int64
	emit := func(b []byte) error {
		m, err := out.Write(b)
		n += int64(m)
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(w.head)))
	if err := emit(hdr[:]); err != nil {
		return n, err
	}
	if err := emit(w.head); err != nil {
		return n, err
	}
	off := uint64(headerSize + len(w.head))
	if p := align8(off) - off; p > 0 {
		if err := emit(pad[:p]); err != nil {
			return n, err
		}
		off += p
	}
	for i, payload := range w.payloads {
		w.sections[i].Off = off
		if err := emit(payload); err != nil {
			return n, err
		}
		off += uint64(len(payload))
		if p := align8(off) - off; p > 0 {
			if err := emit(pad[:p]); err != nil {
				return n, err
			}
			off += p
		}
	}
	dir := make([]byte, 8+len(w.sections)*entrySize)
	binary.LittleEndian.PutUint32(dir, uint32(len(w.sections)))
	for i, s := range w.sections {
		e := dir[8+i*entrySize:]
		binary.LittleEndian.PutUint32(e[0:], s.Kind)
		binary.LittleEndian.PutUint32(e[4:], s.CRC)
		binary.LittleEndian.PutUint64(e[8:], s.Off)
		binary.LittleEndian.PutUint64(e[16:], s.Len)
	}
	dirOff := off
	if err := emit(dir); err != nil {
		return n, err
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], dirOff)
	binary.LittleEndian.PutUint64(foot[8:], uint64(len(dir)))
	binary.LittleEndian.PutUint32(foot[16:], crc32.Checksum(dir, castagnoli))
	copy(foot[24:], footerMagic)
	if err := emit(foot[:]); err != nil {
		return n, err
	}
	return n, nil
}

func align8(off uint64) uint64 { return (off + dirAlign - 1) &^ (dirAlign - 1) }
