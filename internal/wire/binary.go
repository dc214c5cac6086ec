package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Binary codec substrate: the hand-rolled length-prefixed format that
// carries the high-volume protocol messages (stage/ctl/ack cycles, RCE
// lists, completion notifications) and the records every step reads and
// writes (agent containers, queue entries, done records) without gob's
// reflection or per-message type descriptors.
//
// Layering. A binary *payload* is one record: a version byte, a type
// byte identifying the struct, then the struct's fields written with the
// varint helpers below. A binary *frame* is the TCP transport's unit: a
// magic byte and a length prefix around one routed message (see
// network's frame codec). Both lead-in bytes live in the 0x80..0xF7
// window that can never start a gob stream (see scalar.go), so a gob
// encoding never parses as a binary payload or frame. Decoders accept
// only their own payload type; there is no gob form of any record or
// protocol message.
//
// Type-byte registry. Payload type bytes are partitioned by owning
// package so they cannot collide:
//
//	0x01..0x0f  internal/protocol (prepare, ack, ctl, status, rce.exec, batches)
//	0x10..0x1f  internal/node     (done notification, launch)
//	0x20..0x2f  agent containers  (node container; agent cursor,
//	            itinerary and data-space images in savepoints)
//	0x30..0x3f  internal/stable   (queue entry and staged entry records)
//	0x40..0x4f  internal/node     (durable done record)
//
// The authoritative table is in DESIGN.md ("Wire format"). Never reuse
// or renumber a released type byte; the wire format is a compatibility
// surface.
const (
	// BinaryVersion is the first byte of every binary payload. Bump
	// means a new, incompatible payload layout; decoders reject unknown
	// versions rather than guessing.
	BinaryVersion byte = 0x90
	// FrameMagic is the first byte of every binary transport frame
	// (the TCP endpoint's length-prefixed unit). A connection whose
	// first byte is anything else is closed unread.
	FrameMagic byte = 0x91
)

// ErrCorrupt marks a binary payload or frame that does not parse:
// truncated, over-long declared lengths, an unknown version, or trailing
// garbage. Receivers treat it like a lost message.
var ErrCorrupt = errors.New("wire: corrupt binary encoding")

// BinaryMessage is implemented by message structs with a hand-rolled
// binary codec. AppendTo appends the complete payload (version byte,
// type byte, fields) to buf and returns the extended slice — append
// idiom, so callers reuse scratch buffers across messages. DecodeFrom
// parses a payload produced by AppendTo.
//
// DecodeFrom is zero-copy for []byte fields: they alias buf. The caller
// must hand DecodeFrom a buffer it will not mutate afterwards (inbound
// network payloads qualify: each is freshly allocated and immutable
// once delivered).
type BinaryMessage interface {
	AppendTo(buf []byte) []byte
	DecodeFrom(buf []byte) error
}

// SplitBinary validates the two-byte payload header and returns the
// type byte and the field body.
func SplitBinary(data []byte) (typ byte, body []byte, err error) {
	if len(data) < 2 || data[0] != BinaryVersion {
		return 0, nil, fmt.Errorf("%w: bad payload header", ErrCorrupt)
	}
	return data[1], data[2:], nil
}

// AppendHeader appends the two-byte payload header for type typ.
func AppendHeader(buf []byte, typ byte) []byte {
	return append(buf, BinaryVersion, typ)
}

// Body validates the payload header against the expected type byte and
// returns the field body.
func Body(data []byte, want byte) ([]byte, error) {
	typ, body, err := SplitBinary(data)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("%w: payload type 0x%02x, want 0x%02x", ErrCorrupt, typ, want)
	}
	return body, nil
}

// --- append half ------------------------------------------------------

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendVarint appends v in signed (zig-zag) LEB128.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendStrings appends a counted list of strings.
func AppendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// sortKeysInline is the map size up to which AppendBytesMap sorts its
// keys in a stack buffer instead of a heap-allocated slice.
const sortKeysInline = 16

// AppendBytesMap appends a string→bytes map with its keys in sorted
// order, so equal maps encode identically. The count is shifted by one:
// 0 is a nil map, n+1 a map of n entries, so nil and empty stay distinct
// across a round trip.
func AppendBytesMap(buf []byte, m map[string][]byte) []byte {
	if m == nil {
		return append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m))+1)
	var inline [sortKeysInline]string
	keys := inline[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = AppendString(buf, k)
		buf = AppendBytes(buf, m[k])
	}
	return buf
}

// AppendBool appends a bool as one byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// --- read half --------------------------------------------------------

// ReadUvarint consumes an unsigned varint from b, returning the value
// and the remainder.
func ReadUvarint(b []byte) (v uint64, rest []byte, err error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	return v, b[n:], nil
}

// ReadVarint consumes a signed varint from b.
func ReadVarint(b []byte) (v int64, rest []byte, err error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	return v, b[n:], nil
}

// ReadInt consumes a signed varint that must fit an int.
func ReadInt(b []byte) (v int, rest []byte, err error) {
	x, rest, err := ReadVarint(b)
	if err != nil {
		return 0, nil, err
	}
	if int64(int(x)) != x {
		return 0, nil, fmt.Errorf("%w: %d overflows int", ErrCorrupt, x)
	}
	return int(x), rest, nil
}

// ReadCount consumes an element count from b. Every element of a
// counted list costs at least one byte, so a count larger than the
// remaining buffer is corrupt — rejecting it up front keeps a bad header
// from forcing a giant pre-allocation.
func ReadCount(b []byte) (n int, rest []byte, err error) {
	v, rest, err := ReadUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if v > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("%w: count %d exceeds buffer", ErrCorrupt, v)
	}
	return int(v), rest, nil
}

// ReadStrings consumes a list written by AppendStrings; an empty list
// decodes to nil.
func ReadStrings(b []byte) (ss []string, rest []byte, err error) {
	n, b, err := ReadCount(b)
	if err != nil || n == 0 {
		return nil, b, err
	}
	ss = make([]string, n)
	for i := range ss {
		if ss[i], b, err = ReadString(b); err != nil {
			return nil, nil, err
		}
	}
	return ss, b, nil
}

// ReadBytesMap consumes a map written by AppendBytesMap. Values alias b
// (see ReadBytes); a zero-length value decodes to nil.
func ReadBytesMap(b []byte) (m map[string][]byte, rest []byte, err error) {
	shifted, b, err := ReadUvarint(b)
	if err != nil || shifted == 0 {
		return nil, b, err // shifted count: 0 is nil, n+1 is n entries
	}
	n := shifted - 1
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: count %d exceeds buffer", ErrCorrupt, n)
	}
	m = make(map[string][]byte, n)
	for i := uint64(0); i < n; i++ {
		var k string
		var v []byte
		if k, b, err = ReadString(b); err != nil {
			return nil, nil, err
		}
		if v, b, err = ReadBytes(b); err != nil {
			return nil, nil, err
		}
		m[k] = v
	}
	return m, b, nil
}

// ReadString consumes a length-prefixed string from b. The string is a
// copy (strings are immutable; the source buffer may outlive it safely
// either way).
func ReadString(b []byte) (s string, rest []byte, err error) {
	raw, rest, err := ReadBytes(b)
	if err != nil {
		return "", nil, err
	}
	return string(raw), rest, nil
}

// ReadBytes consumes a length-prefixed byte slice from b. The returned
// slice aliases b (zero-copy); a zero length yields nil, so an empty
// slice has one decoded shape.
func ReadBytes(b []byte) (val []byte, rest []byte, err error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) || n > MaxMessageSize {
		return nil, nil, fmt.Errorf("%w: length %d exceeds buffer", ErrCorrupt, n)
	}
	if n == 0 {
		return nil, rest, nil
	}
	return rest[:n:n], rest[n:], nil
}

// ReadBool consumes one bool byte from b. Any non-zero byte is true,
// but encoders only emit 0 and 1.
func ReadBool(b []byte) (v bool, rest []byte, err error) {
	if len(b) == 0 {
		return false, nil, fmt.Errorf("%w: missing bool", ErrCorrupt)
	}
	return b[0] != 0, b[1:], nil
}

// Done verifies a decode consumed its whole body: trailing bytes mean a
// corrupt or mis-versioned payload, never padding.
func Done(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return nil
}
