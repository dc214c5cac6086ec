package wire

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

type streamMsg struct {
	Seq     int64
	Kind    string
	Payload []byte
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	dec := NewStreamDecoder(&buf)
	for i := 0; i < 10; i++ {
		in := streamMsg{Seq: int64(i), Kind: "k", Payload: []byte{byte(i)}}
		if err := enc.Encode(&in); err != nil {
			t.Fatal(err)
		}
		var out streamMsg
		if err := dec.Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Seq != in.Seq || out.Kind != "k" || out.Payload[0] != byte(i) {
			t.Errorf("message %d: %+v", i, out)
		}
	}
	var out streamMsg
	if err := dec.Decode(&out); !errors.Is(err, io.EOF) {
		t.Errorf("after last message: %v, want EOF", err)
	}
}

// TestStreamDescriptorsOnce verifies the point of the session: the first
// message carries the type descriptor, later messages only value bytes.
func TestStreamDescriptorsOnce(t *testing.T) {
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	m := streamMsg{Seq: 1, Kind: "kind", Payload: make([]byte, 64)}
	if err := enc.Encode(&m); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(&m); err != nil {
		t.Fatal(err)
	}
	second := buf.Len() - first
	standalone, err := Encode(&m)
	if err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Errorf("second message (%dB) not smaller than first (%dB)", second, first)
	}
	if second >= len(standalone) {
		t.Errorf("stream message (%dB) not smaller than standalone encoding (%dB)", second, len(standalone))
	}
}

func TestStreamEncoderConcurrent(t *testing.T) {
	var buf lockedBuffer
	enc := NewStreamEncoder(&buf)
	var wg sync.WaitGroup
	const n, per = 8, 50
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := enc.Encode(&streamMsg{Seq: int64(g*per + i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	dec := NewStreamDecoder(bytes.NewReader(buf.Bytes()))
	seen := make(map[int64]bool)
	for i := 0; i < n*per; i++ {
		var m streamMsg
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if seen[m.Seq] {
			t.Fatalf("duplicate seq %d (interleaved writes?)", m.Seq)
		}
		seen[m.Seq] = true
	}
}

// lockedBuffer serializes Writes so the test exercises the encoder's own
// locking, not the buffer's thread-unsafety.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Bytes()
}

func TestScalarRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, 64, -65, 1 << 40, -(1 << 40)} {
		got, ok := DecodeInt64(EncodeInt64(v))
		if !ok || got != v {
			t.Errorf("int64 %d -> %d, %v", v, got, ok)
		}
	}
	for _, s := range []string{"", "x", "hello world"} {
		got, ok := DecodeString(EncodeString(s))
		if !ok || got != s {
			t.Errorf("string %q -> %q, %v", s, got, ok)
		}
	}
	b := []byte{1, 2, 3}
	got, ok := DecodeBytes(EncodeBytes(b))
	if !ok || !bytes.Equal(got, b) {
		t.Errorf("bytes %v -> %v, %v", b, got, ok)
	}
	// The decoded slice must not alias the encoding.
	enc := EncodeBytes(b)
	dec, _ := DecodeBytes(enc)
	dec[0] = 99
	if enc[1] == 99 {
		t.Error("DecodeBytes aliases its input")
	}
}

// TestScalarTagsDisjointFromGob pins the invariant the fast path rests on:
// no gob encoding starts with a byte in the tag range, so tagged values
// and gob values can share a map without ambiguity.
func TestScalarTagsDisjointFromGob(t *testing.T) {
	samples := []any{int64(7), "str", []byte{1}, streamMsg{Seq: 1}, map[string]string{"k": "v"}}
	for _, v := range samples {
		data, err := Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if Tagged(data) {
			t.Errorf("gob encoding of %T starts with tag byte 0x%02x", v, data[0])
		}
	}
	for _, data := range [][]byte{EncodeInt64(5), EncodeString("s"), EncodeBytes([]byte{1})} {
		if !Tagged(data) {
			t.Errorf("scalar encoding %v not recognized as tagged", data)
		}
	}
}

func TestScalarDecodeMismatch(t *testing.T) {
	if _, ok := DecodeInt64(EncodeString("x")); ok {
		t.Error("string decoded as int64")
	}
	if _, ok := DecodeString(EncodeInt64(1)); ok {
		t.Error("int64 decoded as string")
	}
	if _, ok := DecodeInt64(nil); ok {
		t.Error("nil decoded as int64")
	}
}

// TestStreamDecodeBounded: a stream whose gob length prefix claims a
// message beyond MaxMessageSize must fail without a giant allocation.
func TestStreamDecodeBounded(t *testing.T) {
	// Hand-craft the start of a gob stream: an unsigned varint byte count
	// of 512 MiB (negated-length byte 0xFC + 4 big-endian bytes), then
	// nothing. The decoder must refuse it with ErrMessageTooLarge rather
	// than trying to buffer 512 MiB.
	huge := []byte{0xFC, 0x20, 0x00, 0x00, 0x00}
	pad := make([]byte, 1<<20) // some stream bytes to chew through
	dec := NewStreamDecoder(bytes.NewReader(append(huge, pad...)))
	var out streamMsg
	err := dec.Decode(&out)
	if err == nil {
		t.Fatal("oversized message decoded")
	}
	if !errors.Is(err, ErrMessageTooLarge) && !errors.Is(err, io.ErrUnexpectedEOF) {
		// gob may surface its own error first depending on version; the
		// essential property is that it fails fast.
		t.Logf("failed with: %v", err)
	}
	// A legitimate message on a fresh stream still decodes.
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	if err := enc.Encode(&streamMsg{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	dec2 := NewStreamDecoder(&buf)
	if err := dec2.Decode(&out); err != nil || out.Seq != 7 {
		t.Errorf("normal decode after bound check: %+v, %v", out, err)
	}
}

// TestEncodeAllocsFlat guards the pooled encode path: encoding a large
// value must not scale allocations with payload size (the scratch buffer
// is pooled; only the exact-size result is allocated).
func TestEncodeAllocsFlat(t *testing.T) {
	big := streamMsg{Kind: "k", Payload: make([]byte, 256<<10)}
	// Warm the pool.
	if _, err := Encode(&big); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Encode(&big); err != nil {
			t.Fatal(err)
		}
	})
	// A fresh bytes.Buffer would pay ~18 growth re-allocations for a
	// 256 KiB value on top of the encoder internals; the pooled path
	// allocates the encoder, a few gob internals, and the result slice
	// (~17 total). The bound has headroom for the race detector.
	if allocs > 24 {
		t.Errorf("Encode allocs/op = %.1f, want <= 24", allocs)
	}
}
