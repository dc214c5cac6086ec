package node

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/itinerary"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/stable"
	"repro/internal/wire"
)

func TestPermanentErrorClassification(t *testing.T) {
	base := errors.New("boom")
	if isPermanent(base) {
		t.Error("plain error classified permanent")
	}
	p := permanent(base)
	if !isPermanent(p) {
		t.Error("permanent error not recognized")
	}
	wrapped := fmt.Errorf("context: %w", p)
	if !isPermanent(wrapped) {
		t.Error("wrapped permanent error not recognized")
	}
	if !errors.Is(wrapped, base) {
		t.Error("cause lost through permanent wrapper")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{
		itinerary.Step{Method: "m", Loc: "l"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := agent.New("a1", "owner", it)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	data, err := EncodeContainer(&Container{Mode: ModeRollback, SpID: "sp9", Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeRollback || got.SpID != "sp9" || got.Agent.ID != "a1" {
		t.Errorf("container = %+v", got)
	}
	var v string
	if err := got.Agent.WRO.MustGet("k", &v); err != nil || v != "v" {
		t.Errorf("agent data lost: %q, %v", v, err)
	}
}

func TestNodeNameValidation(t *testing.T) {
	if _, err := New(Config{Name: "bad#name"}, nil, nil, nil); err == nil {
		t.Error("node name with '#' accepted")
	}
}

func TestDoneMessageRoundTrip(t *testing.T) {
	it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{
		itinerary.Step{Method: "m", Loc: "l"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := agent.New("agent-7", "owner", it)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeContainer(&Container{Mode: ModeStep, Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wireEncodeDone(doneMsg{AgentID: "agent-7", Failed: true, Reason: "why", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	done, err := DecodeDone(payload)
	if err != nil {
		t.Fatal(err)
	}
	if done.AgentID != "agent-7" || !done.Failed || done.Reason != "why" || done.Agent == nil {
		t.Errorf("done = %+v", done)
	}
}

func wireEncodeDone(m doneMsg) ([]byte, error) {
	n := &Node{}
	return n.encodePayload(&m)
}

// TestGobPayloadsProduceNoEvents: protocol payloads in gob — the retired
// transport encoding — are dropped like lost messages. A gob control
// message and gob acks reach the dispatcher but produce no protocol
// transition; the binary query sent after them is handled (its answer
// proves the dispatcher got past them), and a gob completion payload is
// refused by DecodeDone.
func TestGobPayloadsProduceNoEvents(t *testing.T) {
	sim := network.NewSim(network.SimConfig{})
	defer sim.Close()
	ep, err := sim.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	coEp, err := sim.Endpoint("co")
	if err != nil {
		t.Fatal(err)
	}
	counters := &metrics.Counters{}
	n, err := New(Config{Name: "p", Counters: counters}, ep, stable.NewMemStore(nil), agent.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	<-n.Ready()

	gobOf := func(v any) []byte {
		t.Helper()
		data, err := wire.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before := counters.Snapshot().ProtocolTransitions
	for _, m := range []struct {
		kind    string
		payload []byte
	}{
		{protocol.KindEnqueueCommit, gobOf(&protocol.CtlMsg{TxnID: "co#1"})},
		{protocol.KindRCEAbort, gobOf(&protocol.CtlMsg{TxnID: "co#2"})},
		{protocol.KindEnqueuePrepareAck, gobOf(&protocol.AckMsg{TxnID: "p#1", OK: true})},
		{KindAgentDoneAck, gobOf(&protocol.AckMsg{TxnID: "agent-1", OK: true})},
	} {
		if err := coEp.Send("p", m.kind, m.payload); err != nil {
			t.Fatal(err)
		}
	}
	query := (&protocol.CtlMsg{TxnID: "p#9"}).AppendTo(nil)
	if err := coEp.Send("p", protocol.KindTxnQuery, query); err != nil {
		t.Fatal(err)
	}
	if kind := recvKind(t, coEp, 2*time.Second); kind != protocol.KindTxnStatus {
		t.Fatalf("expected the binary query's status answer, got %s", kind)
	}
	if got := counters.Snapshot().ProtocolTransitions - before; got != 1 {
		t.Fatalf("%d protocol transitions, want 1 (the binary query only)", got)
	}

	for _, v := range []wire.BinaryMessage{&protocol.CtlMsg{}, &protocol.AckMsg{}} {
		if err := v.DecodeFrom(gobOf(v)); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%T: gob payload decoded with err %v, want wire.ErrCorrupt", v, err)
		}
	}
	if _, err := DecodeDone(gobOf(&doneMsg{AgentID: "agent-1"})); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("gob done payload: DecodeDone err %v, want wire.ErrCorrupt", err)
	}
}
