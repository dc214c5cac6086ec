package core

import (
	"fmt"
	"sync"

	"repro/internal/wire"
)

// Binary form of the rollback log. The log has no payload header of its
// own: it is written inline inside the agent container (internal/node)
// as a count followed by the entries, each a kind byte and its fields in
// declaration order via the wire varint helpers. Decoders return the
// unconsumed remainder so the enclosing record keeps parsing. []byte
// values (images, deltas, parameters) alias the decoded buffer.

// Log entry kind bytes (never renumber: they are part of the stored
// container format).
const (
	entrySavepoint byte = 1
	entryBeginStep byte = 2
	entryOp        byte = 3
	entryEndStep   byte = 4
)

// AppendTo appends the operation entry: kind, operation name, then the
// parameters with sorted keys. The layout is shared with the RCE lists
// of internal/protocol, which ship operation entries to resource nodes.
func (op *OpEntry) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(op.Kind))
	buf = wire.AppendString(buf, op.Op)
	return wire.AppendBytesMap(buf, op.Params)
}

// DecodeFrom parses an operation entry written by AppendTo and returns
// the remainder of b. Parameter values alias b.
func (op *OpEntry) DecodeFrom(b []byte) ([]byte, error) {
	kind, b, err := wire.ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	op.Kind = OpKind(kind)
	if op.Op, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if op.Params, b, err = wire.ReadBytesMap(b); err != nil {
		return nil, err
	}
	return b, nil
}

// appendEntry appends one log entry: its kind byte, then its fields.
func appendEntry(buf []byte, e Entry) []byte {
	switch v := e.(type) {
	case *SavepointEntry:
		buf = append(buf, entrySavepoint)
		buf = wire.AppendString(buf, v.ID)
		buf = wire.AppendUvarint(buf, uint64(v.Mode))
		buf = wire.AppendBytesMap(buf, v.Image)
		buf = wire.AppendBool(buf, v.Delta != nil)
		if v.Delta != nil {
			buf = wire.AppendBytesMap(buf, v.Delta.Changed)
			buf = wire.AppendStrings(buf, v.Delta.Deleted)
		}
		buf = wire.AppendBool(buf, v.Special)
		buf = wire.AppendString(buf, v.RefID)
		return wire.AppendBool(buf, v.Auto)
	case *BeginStepEntry:
		buf = append(buf, entryBeginStep)
		buf = wire.AppendString(buf, v.Node)
		return wire.AppendVarint(buf, int64(v.Seq))
	case *OpEntry:
		return v.AppendTo(append(buf, entryOp))
	case *EndStepEntry:
		buf = append(buf, entryEndStep)
		buf = wire.AppendString(buf, v.Node)
		buf = wire.AppendVarint(buf, int64(v.Seq))
		buf = wire.AppendBool(buf, v.HasMixed)
		return wire.AppendStrings(buf, v.AltNodes)
	default:
		// Entry's method set is unexported: only a nil interface value
		// gets here, and only a runtime bug appends one.
		panic(fmt.Sprintf("core: cannot encode log entry %T", e))
	}
}

// decodeEntry parses one entry written by appendEntry.
func decodeEntry(b []byte) (Entry, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("%w: missing log entry", wire.ErrCorrupt)
	}
	kind, b := b[0], b[1:]
	var err error
	switch kind {
	case entrySavepoint:
		sp := &SavepointEntry{}
		if sp.ID, b, err = wire.ReadString(b); err != nil {
			return nil, nil, err
		}
		var mode uint64
		if mode, b, err = wire.ReadUvarint(b); err != nil {
			return nil, nil, err
		}
		sp.Mode = LogMode(mode)
		if sp.Image, b, err = wire.ReadBytesMap(b); err != nil {
			return nil, nil, err
		}
		var hasDelta bool
		if hasDelta, b, err = wire.ReadBool(b); err != nil {
			return nil, nil, err
		}
		if hasDelta {
			sp.Delta = &SRODelta{}
			if sp.Delta.Changed, b, err = wire.ReadBytesMap(b); err != nil {
				return nil, nil, err
			}
			if sp.Delta.Deleted, b, err = wire.ReadStrings(b); err != nil {
				return nil, nil, err
			}
		}
		if sp.Special, b, err = wire.ReadBool(b); err != nil {
			return nil, nil, err
		}
		if sp.RefID, b, err = wire.ReadString(b); err != nil {
			return nil, nil, err
		}
		if sp.Auto, b, err = wire.ReadBool(b); err != nil {
			return nil, nil, err
		}
		return sp, b, nil
	case entryBeginStep:
		bos := &BeginStepEntry{}
		if bos.Node, b, err = wire.ReadString(b); err != nil {
			return nil, nil, err
		}
		if bos.Seq, b, err = wire.ReadInt(b); err != nil {
			return nil, nil, err
		}
		return bos, b, nil
	case entryOp:
		op := &OpEntry{}
		if b, err = op.DecodeFrom(b); err != nil {
			return nil, nil, err
		}
		return op, b, nil
	case entryEndStep:
		eos := &EndStepEntry{}
		if eos.Node, b, err = wire.ReadString(b); err != nil {
			return nil, nil, err
		}
		if eos.Seq, b, err = wire.ReadInt(b); err != nil {
			return nil, nil, err
		}
		if eos.HasMixed, b, err = wire.ReadBool(b); err != nil {
			return nil, nil, err
		}
		if eos.AltNodes, b, err = wire.ReadStrings(b); err != nil {
			return nil, nil, err
		}
		return eos, b, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown log entry kind %d", wire.ErrCorrupt, kind)
	}
}

// AppendTo appends the log (entry count, then the entries) to buf. A nil
// log encodes as an empty one.
func (l *Log) AppendTo(buf []byte) []byte {
	if l == nil {
		return wire.AppendUvarint(buf, 0)
	}
	buf = wire.AppendUvarint(buf, uint64(len(l.Entries)))
	for _, e := range l.Entries {
		buf = appendEntry(buf, e)
	}
	return buf
}

// DecodeFrom replaces the log's entries with those parsed from b and
// returns the remainder. An empty log decodes to nil Entries.
func (l *Log) DecodeFrom(b []byte) ([]byte, error) {
	n, b, err := wire.ReadCount(b)
	if err != nil {
		return nil, err
	}
	*l = Log{}
	if n == 0 {
		return b, nil
	}
	l.Entries = make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		var e Entry
		if e, b, err = decodeEntry(b); err != nil {
			return nil, err
		}
		l.Entries = append(l.Entries, e)
	}
	return b, nil
}

// sizeScratch recycles the buffer EncodedSize measures entries in.
var sizeScratch = sync.Pool{New: func() any { return new([]byte) }}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}
