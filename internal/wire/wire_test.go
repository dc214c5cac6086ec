package wire

import "testing"

// blobMsg is a gob-encoded value with a byte payload.
type blobMsg struct {
	Seq     int64
	Kind    string
	Payload []byte
}

type payload struct {
	Name  string
	Count int64
	Tags  []string
	Meta  map[string]string
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := payload{
		Name:  "agent-1",
		Count: -42,
		Tags:  []string{"a", "b"},
		Meta:  map[string]string{"k": "v"},
	}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Count != in.Count || len(out.Tags) != 2 || out.Meta["k"] != "v" {
		t.Errorf("roundtrip = %+v", out)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	var out payload
	if err := Decode([]byte("not gob"), &out); err == nil {
		t.Error("corrupt input decoded")
	}
}

func TestMustEncodePanicsOnUnencodable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEncode did not panic on a channel")
		}
	}()
	MustEncode(make(chan int))
}

// TestEncodeAllocsFlat guards the pooled encode path: encoding a large
// value must not scale allocations with payload size (the scratch buffer
// is pooled; only the exact-size result is allocated).
func TestEncodeAllocsFlat(t *testing.T) {
	big := blobMsg{Kind: "k", Payload: make([]byte, 256<<10)}
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
