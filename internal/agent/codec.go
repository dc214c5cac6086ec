package agent

import (
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/wire"
)

// Binary form of the agent: the record that migrates (inside the node's
// container) and sits in input queues. Fields in declaration order via
// the wire varint helpers, with the data spaces, itinerary, cursor and
// rollback log written inline by their own packages' codecs.

// Payload type bytes of the records savepoint images store (agent
// container partition 0x20..0x2f; see DESIGN.md "Wire format").
const (
	typeCursor    byte = 0x21
	typeItinerary byte = 0x22
	typeSpace     byte = 0x23
)

// AppendTo appends the agent to buf.
func (a *Agent) AppendTo(buf []byte) []byte {
	buf = wire.AppendString(buf, a.ID)
	buf = wire.AppendString(buf, a.Owner)
	buf = wire.AppendVarint(buf, int64(a.StepSeq))
	buf = a.SRO.appendTo(buf)
	buf = a.WRO.appendTo(buf)
	buf = a.Itin.AppendTo(buf)
	buf = a.Cursor.AppendTo(buf)
	return a.Log.AppendTo(buf)
}

// DecodeFrom replaces the agent with the one parsed from b and returns
// the remainder. The data spaces, itinerary and log of a decoded agent
// are never nil; data-space values alias b.
func (a *Agent) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	*a = Agent{SRO: NewSpace(), WRO: NewSpace(), Itin: &itinerary.Itinerary{}, Log: &core.Log{}}
	if a.ID, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if a.Owner, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if a.StepSeq, b, err = wire.ReadInt(b); err != nil {
		return nil, err
	}
	if b, err = a.SRO.decodeFrom(b); err != nil {
		return nil, err
	}
	if b, err = a.WRO.decodeFrom(b); err != nil {
		return nil, err
	}
	if b, err = a.Itin.DecodeFrom(b); err != nil {
		return nil, err
	}
	if b, err = a.Cursor.DecodeFrom(b); err != nil {
		return nil, err
	}
	return a.Log.DecodeFrom(b)
}

// appendTo appends the space's contents; a nil space encodes as empty.
func (s *Space) appendTo(buf []byte) []byte {
	if s == nil {
		return wire.AppendBytesMap(buf, nil)
	}
	return wire.AppendBytesMap(buf, s.Data)
}

// decodeFrom replaces the space's contents with those parsed from b.
func (s *Space) decodeFrom(b []byte) ([]byte, error) {
	data, b, err := wire.ReadBytesMap(b)
	if err != nil {
		return nil, err
	}
	if data == nil {
		data = make(map[string][]byte)
	}
	s.Data = data
	return b, nil
}

// encodeCursor and the functions below give the system-state entries of
// a savepoint image self-contained payloads (a header, then the inline
// form), since each is one opaque value in the image map.
func encodeCursor(c itinerary.Cursor) []byte {
	return c.AppendTo(wire.AppendHeader(nil, typeCursor))
}

func decodeCursor(data []byte) (c itinerary.Cursor, err error) {
	b, err := wire.Body(data, typeCursor)
	if err != nil {
		return c, err
	}
	if b, err = c.DecodeFrom(b); err != nil {
		return c, err
	}
	return c, wire.Done(b)
}

func encodeItinerary(it *itinerary.Itinerary) []byte {
	return it.AppendTo(wire.AppendHeader(nil, typeItinerary))
}

func decodeItinerary(data []byte) (*itinerary.Itinerary, error) {
	b, err := wire.Body(data, typeItinerary)
	if err != nil {
		return nil, err
	}
	it := &itinerary.Itinerary{}
	if b, err = it.DecodeFrom(b); err != nil {
		return nil, err
	}
	return it, wire.Done(b)
}

func encodeImage(img map[string][]byte) []byte {
	return wire.AppendBytesMap(wire.AppendHeader(nil, typeSpace), img)
}

func decodeImage(data []byte) (map[string][]byte, error) {
	b, err := wire.Body(data, typeSpace)
	if err != nil {
		return nil, err
	}
	img, b, err := wire.ReadBytesMap(b)
	if err != nil {
		return nil, err
	}
	return img, wire.Done(b)
}
