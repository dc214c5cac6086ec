package node

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/wire"
)

// benchContainer builds the container a four-node forward workload
// launches: one sub-itinerary of four steps round-robin over the nodes,
// the agent's bank name in its weakly reversible space, and the initial
// savepoint of the entered sub-itinerary.
func benchContainer(t testing.TB) *Container {
	t.Helper()
	sub := &itinerary.Sub{ID: "errand"}
	for _, loc := range []string{"B", "C", "D", "A"} {
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "bench.step", Loc: loc})
	}
	it, err := itinerary.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.NewAt("a000123", "~collector", it, "B")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.Set("bank", "bank3"); err != nil {
		t.Fatal(err)
	}
	if err := AppendInitialSavepoints(a, entered, core.StateLogging); err != nil {
		t.Fatal(err)
	}
	return &Container{Mode: ModeStep, Agent: a}
}

// richContainer exercises every field of the format: a rollback-mode
// migration container whose agent has nested and any-order subs with
// alternatives, both data spaces, a transition-logged log with a delta,
// a special savepoint and every entry kind.
func richContainer(t testing.TB) *Container {
	t.Helper()
	it, err := itinerary.New(
		&itinerary.Sub{ID: "trip", Entries: []itinerary.Entry{
			itinerary.Step{Method: "book", Loc: "n1", Alt: []string{"n2", "n3"}},
			&itinerary.Sub{ID: "shop", AnyOrder: true, Entries: []itinerary.Entry{
				itinerary.Step{Method: "buy", Loc: "n2"},
				itinerary.Step{Method: "buy", Loc: "n3"},
			}},
		}},
		&itinerary.Sub{ID: "home", Entries: []itinerary.Entry{itinerary.Step{Method: "pay", Loc: "n1"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("rich", "owner", it)
	if err != nil {
		t.Fatal(err)
	}
	a.StepSeq = 2
	for k, v := range map[string]any{"n": 7, "s": "text", "b": []byte{1, 2}, "l": []string{"x"}} {
		if err := a.SRO.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.WRO.Set("cash", int64(-40)); err != nil {
		t.Fatal(err)
	}
	if err := AppendInitialSavepoints(a, entered, core.TransitionLogging); err != nil {
		t.Fatal(err)
	}
	a.Log.Append(&core.BeginStepEntry{Node: "n1", Seq: 1})
	a.Log.Append(&core.OpEntry{Kind: core.OpMixed, Op: "unbook", Params: core.NewParams().Set("id", 9).Set("who", "x")})
	a.Log.Append(&core.OpEntry{Kind: core.OpAgent, Op: "note", Params: core.Params{}})
	a.Log.Append(&core.EndStepEntry{Node: "n1", Seq: 1, HasMixed: true, AltNodes: []string{"n2"}})
	if err := a.SRO.Set("s", "changed"); err != nil {
		t.Fatal(err)
	}
	if err := a.SRO.Delete("b"); err != nil {
		t.Fatal(err)
	}
	img, err := a.SystemImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Log.AppendSavepoint("shop", img, core.TransitionLogging, true); err != nil {
		t.Fatal(err)
	}
	if err := a.Log.AppendSpecialSavepoint("inner", "shop", true); err != nil {
		t.Fatal(err)
	}
	return &Container{Mode: ModeRollback, SpID: "trip", Agent: a, Epoch: 3}
}

func mustEncode(t testing.TB, c *Container) []byte {
	t.Helper()
	data, err := EncodeContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkRoundTrip is the fuzz property: data that decodes re-encodes to a
// container decoding to the same value, and decoded agents are complete.
func checkRoundTrip(t *testing.T, data []byte) {
	c, err := DecodeContainer(data)
	if err != nil {
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("decode error %v does not wrap wire.ErrCorrupt", err)
		}
		return
	}
	if a := c.Agent; a != nil && (a.SRO == nil || a.WRO == nil || a.Log == nil || a.Itin == nil) {
		t.Fatalf("decoded agent has nil parts: %+v", a)
	}
	enc := mustEncode(t, c)
	again, err := DecodeContainer(enc)
	if err != nil {
		t.Fatalf("re-encoded container does not decode: %v", err)
	}
	if !reflect.DeepEqual(c, again) {
		t.Fatalf("encode∘decode is not the identity:\n got %+v\nwant %+v", again, c)
	}
	if !bytes.Equal(enc, mustEncode(t, again)) {
		t.Fatal("encoding of equal containers differs")
	}
}

func FuzzContainerRoundTrip(f *testing.F) {
	for _, c := range []*Container{benchContainer(f), richContainer(f), {Mode: ModeStep}} {
		f.Add(mustEncode(f, c))
	}
	f.Fuzz(checkRoundTrip)
}

func TestContainerRoundTripIdentity(t *testing.T) {
	for _, c := range []*Container{benchContainer(t), richContainer(t)} {
		got, err := DecodeContainer(mustEncode(t, c))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("round trip changed the container:\n got %+v\nwant %+v", got.Agent, c.Agent)
		}
		if got.Agent.Log.String() != c.Agent.Log.String() {
			t.Errorf("log %s, want %s", got.Agent.Log, c.Agent.Log)
		}
	}
}

// TestContainerDecodeRejectsCorrupt: truncation, trailing bytes,
// over-long counts and gob bytes all fail as wire.ErrCorrupt.
func TestContainerDecodeRejectsCorrupt(t *testing.T) {
	data := mustEncode(t, richContainer(t))
	for n := 0; n < len(data); n++ {
		if _, err := DecodeContainer(data[:n]); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("truncated to %d of %d bytes: err = %v", n, len(data), err)
		}
	}
	if _, err := DecodeContainer(append(append([]byte(nil), data...), 0)); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("trailing byte: err = %v", err)
	}
	// Header, epoch 0, mode 1, empty SpID, agent present, ID "a", owner
	// "", StepSeq 0, then an SRO count claiming 2^40 entries.
	long := append([]byte{wire.BinaryVersion, typeContainer, 0, 1, 0, 1, 1, 'a', 0, 0}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	if _, err := DecodeContainer(long); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("over-long count: err = %v", err)
	}
	gob, err := wire.Encode(&Container{Mode: ModeStep, SpID: "sp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeContainer(gob); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("gob bytes: err = %v", err)
	}
}

// TestContainerCodecAllocs guards the codec's allocation budget on the
// forward workload's launch container. The encode budget counts on
// EncodeContainer's pooled scratch buffer, which the race detector's
// random sync.Pool drops turn into a coin flip, so the budget is only
// asserted in a build without -race.
func TestContainerCodecAllocs(t *testing.T) {
	c := benchContainer(t)
	data := mustEncode(t, c)
	enc := testing.AllocsPerRun(200, func() {
		if _, err := EncodeContainer(c); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(200, func() {
		if _, err := DecodeContainer(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: encode %.0f, decode %.0f", enc, dec)
	if !raceEnabled && (enc > 2 || dec > 64) {
		t.Errorf("allocs/op: encode %.0f (max 2), decode %.0f (max 64)", enc, dec)
	}
}

// TestLogEncodedSizeIsContainerShare: Log.EncodedSize is exactly the
// bytes the log occupies in an encoded container.
func TestLogEncodedSizeIsContainerShare(t *testing.T) {
	for _, c := range []*Container{benchContainer(t), richContainer(t)} {
		full := len(mustEncode(t, c))
		log := c.Agent.Log
		c.Agent.Log = &core.Log{}
		bare := len(mustEncode(t, c))
		c.Agent.Log = log
		if got := log.EncodedSize(); got != full-bare {
			t.Errorf("EncodedSize %d, container share %d (%d - %d)", got, full-bare, full, bare)
		}
	}
}

func TestContainerEpochPeek(t *testing.T) {
	c := richContainer(t)
	epoch, err := containerEpoch(mustEncode(t, c))
	if err != nil || epoch != c.Epoch {
		t.Errorf("containerEpoch = %d, %v; want %d", epoch, err, c.Epoch)
	}
}

func TestQueueRecordsRoundTrip(t *testing.T) {
	rec := doneRec{Owner: "ctl", Msg: doneMsg{AgentID: "a", Failed: true, Reason: "why", Data: []byte{1}}}
	var got doneRec
	if err := got.DecodeFrom(rec.AppendTo(nil)); err != nil || !reflect.DeepEqual(got, rec) {
		t.Errorf("done record = %+v, %v; want %+v", got, err, rec)
	}
	launch := launchMsg{ID: "a", Data: []byte{2, 3}}
	var gotLaunch launchMsg
	if err := gotLaunch.DecodeFrom(launch.AppendTo(nil)); err != nil || !reflect.DeepEqual(gotLaunch, launch) {
		t.Errorf("launch = %+v, %v; want %+v", gotLaunch, err, launch)
	}
	if err := got.DecodeFrom(launch.AppendTo(nil)); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("launch bytes decoded as a done record: %v", err)
	}
}
