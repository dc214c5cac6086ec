package itinerary

import (
	"fmt"

	"repro/internal/wire"
)

// Binary form of itineraries and cursors. Both are written inline inside
// the agent container (and, wrapped in a payload header, in savepoint
// images; see internal/agent): fields in declaration order via the wire
// varint helpers, decoders returning the unconsumed remainder.

// Itinerary entry tags.
const (
	tagStep byte = 0
	tagSub  byte = 1
)

// maxDepth bounds sub-itinerary nesting on decode, so corrupt input
// cannot recurse the decoder off the stack.
const maxDepth = 256

// AppendTo appends the itinerary to buf. A nil itinerary encodes as one
// without sub-itineraries.
func (it *Itinerary) AppendTo(buf []byte) []byte {
	if it == nil {
		return wire.AppendUvarint(buf, 0)
	}
	buf = wire.AppendUvarint(buf, uint64(len(it.Subs)))
	for _, sub := range it.Subs {
		buf = sub.appendTo(buf)
	}
	return buf
}

func (sub *Sub) appendTo(buf []byte) []byte {
	buf = wire.AppendString(buf, sub.ID)
	buf = wire.AppendBool(buf, sub.AnyOrder)
	buf = wire.AppendUvarint(buf, uint64(len(sub.Entries)))
	for _, e := range sub.Entries {
		switch v := e.(type) {
		case Step:
			buf = append(buf, tagStep)
			buf = wire.AppendString(buf, v.Method)
			buf = wire.AppendString(buf, v.Loc)
			buf = wire.AppendStrings(buf, v.Alt)
		case *Sub:
			buf = v.appendTo(append(buf, tagSub))
		default:
			// Entry's method set is unexported: only a nil interface
			// value gets here, and only a runtime bug stores one.
			panic(fmt.Sprintf("itinerary: cannot encode entry %T", e))
		}
	}
	return buf
}

// DecodeFrom replaces the itinerary with the one parsed from b and
// returns the remainder.
func (it *Itinerary) DecodeFrom(b []byte) ([]byte, error) {
	n, b, err := wire.ReadCount(b)
	if err != nil {
		return nil, err
	}
	it.Subs = nil
	if n > 0 {
		it.Subs = make([]*Sub, n)
	}
	for i := range it.Subs {
		if it.Subs[i], b, err = decodeSub(b, 1); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeSub(b []byte, depth int) (*Sub, []byte, error) {
	if depth > maxDepth {
		return nil, nil, fmt.Errorf("%w: itinerary nested deeper than %d", wire.ErrCorrupt, maxDepth)
	}
	sub := &Sub{}
	var err error
	if sub.ID, b, err = wire.ReadString(b); err != nil {
		return nil, nil, err
	}
	if sub.AnyOrder, b, err = wire.ReadBool(b); err != nil {
		return nil, nil, err
	}
	var n int
	if n, b, err = wire.ReadCount(b); err != nil {
		return nil, nil, err
	}
	if n > 0 {
		sub.Entries = make([]Entry, n)
	}
	for i := range sub.Entries {
		if len(b) == 0 {
			return nil, nil, fmt.Errorf("%w: missing itinerary entry", wire.ErrCorrupt)
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case tagStep:
			var s Step
			if s.Method, b, err = wire.ReadString(b); err != nil {
				return nil, nil, err
			}
			if s.Loc, b, err = wire.ReadString(b); err != nil {
				return nil, nil, err
			}
			if s.Alt, b, err = wire.ReadStrings(b); err != nil {
				return nil, nil, err
			}
			sub.Entries[i] = s
		case tagSub:
			var child *Sub
			if child, b, err = decodeSub(b, depth+1); err != nil {
				return nil, nil, err
			}
			sub.Entries[i] = child
		default:
			return nil, nil, fmt.Errorf("%w: unknown itinerary entry tag %d", wire.ErrCorrupt, tag)
		}
	}
	return sub, b, nil
}

// AppendTo appends the cursor to buf.
func (c Cursor) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(c.Path)))
	for _, i := range c.Path {
		buf = wire.AppendVarint(buf, int64(i))
	}
	return wire.AppendBool(buf, c.Done)
}

// DecodeFrom replaces the cursor with the one parsed from b and returns
// the remainder. An empty path decodes to nil.
func (c *Cursor) DecodeFrom(b []byte) ([]byte, error) {
	n, b, err := wire.ReadCount(b)
	if err != nil {
		return nil, err
	}
	c.Path = nil
	if n > 0 {
		c.Path = make([]int, n)
	}
	for i := range c.Path {
		if c.Path[i], b, err = wire.ReadInt(b); err != nil {
			return nil, err
		}
	}
	if c.Done, b, err = wire.ReadBool(b); err != nil {
		return nil, err
	}
	return b, nil
}
