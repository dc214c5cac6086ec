package wire

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
)

// StreamEncoder is a persistent gob encode session over one writer. Unlike
// Encode, which starts a fresh gob stream per value (re-transmitting type
// descriptors every time), a StreamEncoder sends each type's descriptor
// once for the lifetime of the stream — the per-message cost degenerates to
// the value bytes. The TCP transport keeps one per outbound connection.
//
// Encode is safe for concurrent use: a mutex serializes writers so
// concurrent messages cannot interleave on the underlying stream. Each
// value is staged in a session buffer and written in one Write call, so a
// message that exceeds MaxMessageSize is rejected locally — no bytes hit
// the wire — instead of being shipped and refused by the receiver.
type StreamEncoder struct {
	mu  sync.Mutex
	w   io.Writer
	buf bytes.Buffer
	enc *gob.Encoder
}

// NewStreamEncoder starts an encode session writing to w.
func NewStreamEncoder(w io.Writer) *StreamEncoder {
	e := &StreamEncoder{w: w}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// Encode appends v to the stream. After an error the stream is undefined
// (on ErrMessageTooLarge the session's descriptor state has diverged from
// the receiver even though nothing was written); the caller must discard
// the session and the underlying connection.
func (e *StreamEncoder) Encode(v any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("wire: stream encode %T: %w", v, err)
	}
	if e.buf.Len() > MaxMessageSize {
		return fmt.Errorf("wire: stream encode %T (%d bytes): %w", v, e.buf.Len(), ErrMessageTooLarge)
	}
	if _, err := e.w.Write(e.buf.Bytes()); err != nil {
		return fmt.Errorf("wire: stream write: %w", err)
	}
	if e.buf.Cap() > maxPooledBuf {
		// Don't let one huge message pin a same-sized staging buffer for
		// the connection's lifetime.
		e.buf = bytes.Buffer{}
	}
	return nil
}

// StreamDecoder is the receiving half of a StreamEncoder session: a
// persistent gob decode session over one reader. It is not safe for
// concurrent use; a connection's read loop owns it.
//
// Each Decode call may draw at most MaxMessageSize bytes from the
// underlying reader, so a corrupt or malicious stream whose length prefix
// claims a giant message fails with ErrMessageTooLarge instead of forcing
// an unbounded allocation (gob's own internal cap is ~1 GiB).
type StreamDecoder struct {
	dec *gob.Decoder
	lim *meteredReader
}

// meteredReader passes reads through until the per-message budget is
// exhausted. It implements io.ByteReader so gob uses it directly instead
// of stacking a second bufio layer on the receive path.
type meteredReader struct {
	br     *bufio.Reader
	budget int
}

func (m *meteredReader) Read(p []byte) (int, error) {
	if m.budget <= 0 {
		return 0, ErrMessageTooLarge
	}
	if len(p) > m.budget {
		p = p[:m.budget]
	}
	n, err := m.br.Read(p)
	m.budget -= n
	return n, err
}

func (m *meteredReader) ReadByte() (byte, error) {
	if m.budget <= 0 {
		return 0, ErrMessageTooLarge
	}
	b, err := m.br.ReadByte()
	if err == nil {
		m.budget--
	}
	return b, err
}

// NewStreamDecoder starts a decode session reading from r.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	lim := &meteredReader{br: bufio.NewReader(r)}
	return &StreamDecoder{dec: gob.NewDecoder(lim), lim: lim}
}

// Decode reads the next value from the stream into v (a non-nil pointer).
// io.EOF is returned unwrapped when the stream ends cleanly between values.
func (d *StreamDecoder) Decode(v any) error {
	d.lim.budget = MaxMessageSize
	if err := d.dec.Decode(v); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("wire: stream decode %T: %w", v, err)
	}
	return nil
}
