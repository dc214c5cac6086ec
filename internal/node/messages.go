package node

import (
	"sync"

	"repro/internal/agent"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// The protocol message kinds and payloads (q.*, rce.*, txn.*) live in
// internal/protocol; this file keeps only the node-runtime messages:
// agent launch and completion notification.
const (
	kindAgentLaunch    = "agent.launch"
	kindAgentLaunchAck = "agent.launch.ack"
	kindAgentDone      = "agent.done"
	kindAgentDoneAck   = "agent.done.ack"
)

// Mode distinguishes the two kinds of work a queued container requests.
type Mode int

// Container modes.
const (
	// ModeStep: execute the next step of the itinerary (§2).
	ModeStep Mode = iota + 1
	// ModeRollback: execute the next compensation transaction of a
	// partial rollback towards savepoint SpID (§4.3).
	ModeRollback
)

// Container is the unit stored in agent input queues and transferred
// between nodes: the agent (with its attached rollback log) plus the
// processing mode.
type Container struct {
	Mode  Mode
	SpID  string // rollback target savepoint (ModeRollback only)
	Agent *agent.Agent
	// Epoch versions migration hand-offs of this container. Zero on the
	// ordinary step/rollback paths; the rebalancer bumps it before each
	// migration so a destination can refuse adopting an agent epoch it
	// has already adopted (duplicate-adoption guard, see membership.go).
	Epoch int64
}

// Payload type bytes of the node runtime's records. Messages live in
// 0x10..0x1f, the container in the agent-container partition 0x20..0x2f
// (0x21..0x23 are the agent's savepoint-image records), the durable done
// record in 0x40..0x4f. See DESIGN.md "Wire format"; never reuse a value.
const (
	typeDone      byte = 0x10
	typeLaunch    byte = 0x11
	typeContainer byte = 0x20
	typeDoneRec   byte = 0x40
)

// encodeScratch recycles EncodeContainer's build buffer, so an encode
// allocates only its exact-size result.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledScratch caps the buffers kept in encodeScratch: a rare huge
// container must not pin a same-sized buffer for the process lifetime.
const maxPooledScratch = 1 << 20

// EncodeContainer serializes a container for queue storage / transfer.
// The binary encoding cannot fail; the error result is kept for callers.
func EncodeContainer(c *Container) ([]byte, error) {
	scratch := encodeScratch.Get().(*[]byte)
	*scratch = c.AppendTo((*scratch)[:0])
	out := make([]byte, len(*scratch))
	copy(out, *scratch)
	if cap(*scratch) <= maxPooledScratch {
		encodeScratch.Put(scratch)
	}
	return out, nil
}

// DecodeContainer deserializes a container. Data-space, image and
// parameter values alias data, which must not be modified afterwards.
func DecodeContainer(data []byte) (*Container, error) {
	c := &Container{}
	if err := c.DecodeFrom(data); err != nil {
		return nil, err
	}
	return c, nil
}

// AppendTo implements wire.BinaryMessage. The migration epoch leads the
// fields so the adoption gate can read it without decoding the agent
// (containerEpoch).
func (c *Container) AppendTo(buf []byte) []byte {
	buf = wire.AppendHeader(buf, typeContainer)
	buf = wire.AppendVarint(buf, c.Epoch)
	buf = wire.AppendUvarint(buf, uint64(c.Mode))
	buf = wire.AppendString(buf, c.SpID)
	buf = wire.AppendBool(buf, c.Agent != nil)
	if c.Agent != nil {
		buf = c.Agent.AppendTo(buf)
	}
	return buf
}

// DecodeFrom implements wire.BinaryMessage.
func (c *Container) DecodeFrom(data []byte) error {
	b, err := wire.Body(data, typeContainer)
	if err != nil {
		return err
	}
	*c = Container{}
	if c.Epoch, b, err = wire.ReadVarint(b); err != nil {
		return err
	}
	var mode uint64
	if mode, b, err = wire.ReadUvarint(b); err != nil {
		return err
	}
	c.Mode = Mode(mode)
	if c.SpID, b, err = wire.ReadString(b); err != nil {
		return err
	}
	var hasAgent bool
	if hasAgent, b, err = wire.ReadBool(b); err != nil {
		return err
	}
	if hasAgent {
		c.Agent = &agent.Agent{}
		if b, err = c.Agent.DecodeFrom(b); err != nil {
			return err
		}
	}
	return wire.Done(b)
}

// containerEpoch reads a container's migration epoch from its leading
// field without decoding the rest.
func containerEpoch(data []byte) (int64, error) {
	b, err := wire.Body(data, typeContainer)
	if err != nil {
		return 0, err
	}
	epoch, _, err := wire.ReadVarint(b)
	return epoch, err
}

// launchMsg inserts a fresh agent container into the node's input queue.
type launchMsg struct {
	ID   string // request correlation + queue entry ID
	Data []byte
}

// doneMsg reports agent completion (or permanent failure) to its owner.
type doneMsg struct {
	AgentID string
	Failed  bool
	Reason  string
	Data    []byte // final agent container
}

// AppendTo implements wire.BinaryMessage: completion notifications carry
// the full final agent container, so they ride the fast path alongside
// the protocol messages.
func (m *doneMsg) AppendTo(buf []byte) []byte {
	return m.appendFields(wire.AppendHeader(buf, typeDone))
}

func (m *doneMsg) appendFields(buf []byte) []byte {
	buf = wire.AppendString(buf, m.AgentID)
	buf = wire.AppendBool(buf, m.Failed)
	buf = wire.AppendString(buf, m.Reason)
	return wire.AppendBytes(buf, m.Data)
}

// DecodeFrom implements wire.BinaryMessage. Data aliases the input.
func (m *doneMsg) DecodeFrom(data []byte) error {
	b, err := wire.Body(data, typeDone)
	if err != nil {
		return err
	}
	if b, err = m.decodeFields(b); err != nil {
		return err
	}
	return wire.Done(b)
}

func (m *doneMsg) decodeFields(b []byte) ([]byte, error) {
	var err error
	if m.AgentID, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if m.Failed, b, err = wire.ReadBool(b); err != nil {
		return nil, err
	}
	if m.Reason, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if m.Data, b, err = wire.ReadBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// Exported message kinds for collectors (owners) built outside this
// package.
const (
	// KindAgentDone is the completion notification an owner receives.
	KindAgentDone = kindAgentDone
	// KindAgentDoneAck acknowledges a completion notification.
	KindAgentDoneAck = kindAgentDoneAck
)

// Done is the decoded form of a completion notification.
type Done struct {
	AgentID string
	Failed  bool
	Reason  string
	Agent   *agent.Agent
}

// DecodeDone decodes a KindAgentDone payload.
func DecodeDone(payload []byte) (Done, error) {
	var dm doneMsg
	if err := dm.DecodeFrom(payload); err != nil {
		return Done{}, err
	}
	d := Done{AgentID: dm.AgentID, Failed: dm.Failed, Reason: dm.Reason}
	if len(dm.Data) > 0 {
		cont, err := DecodeContainer(dm.Data)
		if err != nil {
			return Done{}, err
		}
		d.Agent = cont.Agent
	}
	return d, nil
}

// EncodeDoneAck builds the KindAgentDoneAck payload for agentID.
func EncodeDoneAck(agentID string) ([]byte, error) {
	ack := protocol.AckMsg{TxnID: agentID, OK: true}
	return ack.AppendTo(nil), nil
}

// KindAgentLaunch is the message kind inserting a fresh agent container
// into a node's input queue; external launchers (agentctl) send it.
const KindAgentLaunch = kindAgentLaunch

// EncodeLaunch builds a KindAgentLaunch payload.
func EncodeLaunch(id string, container []byte) ([]byte, error) {
	m := launchMsg{ID: id, Data: container}
	return m.AppendTo(nil), nil
}

// AppendTo implements wire.BinaryMessage.
func (m *launchMsg) AppendTo(buf []byte) []byte {
	buf = wire.AppendHeader(buf, typeLaunch)
	buf = wire.AppendString(buf, m.ID)
	return wire.AppendBytes(buf, m.Data)
}

// DecodeFrom implements wire.BinaryMessage. Data aliases the input.
func (m *launchMsg) DecodeFrom(data []byte) error {
	b, err := wire.Body(data, typeLaunch)
	if err != nil {
		return err
	}
	if m.ID, b, err = wire.ReadString(b); err != nil {
		return err
	}
	if m.Data, b, err = wire.ReadBytes(b); err != nil {
		return err
	}
	return wire.Done(b)
}

// doneRec is the durable completion record re-sent to the owner until
// acknowledged.
type doneRec struct {
	Owner string
	Msg   doneMsg
}

// AppendTo implements wire.BinaryMessage.
func (r *doneRec) AppendTo(buf []byte) []byte {
	buf = wire.AppendHeader(buf, typeDoneRec)
	buf = wire.AppendString(buf, r.Owner)
	return r.Msg.appendFields(buf)
}

// DecodeFrom implements wire.BinaryMessage. Msg.Data aliases the input.
func (r *doneRec) DecodeFrom(data []byte) error {
	b, err := wire.Body(data, typeDoneRec)
	if err != nil {
		return err
	}
	if r.Owner, b, err = wire.ReadString(b); err != nil {
		return err
	}
	if b, err = r.Msg.decodeFields(b); err != nil {
		return err
	}
	return wire.Done(b)
}
