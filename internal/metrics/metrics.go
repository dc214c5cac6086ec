// Package metrics collects counters for the experiments in EXPERIMENTS.md.
//
// A single Counters value is shared by the network, the stable stores and
// the node runtimes of one cluster; all methods are safe for concurrent
// use. Snapshots are plain structs so experiment harnesses can diff them.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latRingSize bounds the step-latency reservoir: percentiles are computed
// over the most recent latRingSize observations.
const latRingSize = 8192

// Counters accumulates event counts for one cluster run.
// The zero value is ready to use.
type Counters struct {
	messages          atomic.Int64
	bytesSent         atomic.Int64
	agentTransfers    atomic.Int64
	agentTransferByte atomic.Int64
	stepTxns          atomic.Int64
	stepTxnAborts     atomic.Int64
	compTxns          atomic.Int64
	compTxnAborts     atomic.Int64
	compOps           atomic.Int64
	remoteCompBatches atomic.Int64
	savepoints        atomic.Int64
	logBytesPeak      atomic.Int64
	stableWrites      atomic.Int64
	stableBytes       atomic.Int64
	containerDecodes  atomic.Int64

	// Scheduler (internal/sched) instrumentation.
	schedClaims     atomic.Int64
	claimConflicts  atomic.Int64
	lockAborts      atomic.Int64
	schedRetries    atomic.Int64
	inFlight        atomic.Int64
	inFlightPeak    atomic.Int64
	queueDepthPeak  atomic.Int64
	workerBusyNanos atomic.Int64

	// Network fault-injection (internal/network.Sim) instrumentation.
	netFaultDrops       atomic.Int64
	netFaultDups        atomic.Int64
	netFaultReorders    atomic.Int64
	netUnreachableDrops atomic.Int64
	mailboxDrops        atomic.Int64

	// Wire / coalescing instrumentation: transport-level batches (one
	// write or mailbox hop carrying ≥1 frames) and bytes on the wire per
	// message kind.
	netBatches     atomic.Int64
	netBatchedMsgs atomic.Int64
	netBatchHist   [len(BatchSizeBuckets) + 1]atomic.Int64

	// Control-plane batching (internal/node's GC stager and ack
	// piggybacking) instrumentation.
	decisionBatches   atomic.Int64
	decisionOps       atomic.Int64
	decisionBatchHist [len(BatchSizeBuckets) + 1]atomic.Int64
	ackPiggybacked    atomic.Int64

	wireMu          sync.Mutex
	wireBytesByKind map[string]int64
	wireMsgsByKind  map[string]int64

	// Protocol core (internal/protocol driven by internal/node)
	// instrumentation.
	protocolTransitions atomic.Int64
	timersArmed         atomic.Int64
	timersFired         atomic.Int64

	// Membership / migration (internal/membership driven by
	// internal/node's rebalancer) instrumentation.
	memberAnnounces  atomic.Int64
	ringChanges      atomic.Int64
	migrations       atomic.Int64
	migrationBytes   atomic.Int64
	migrationAborts  atomic.Int64
	adoptionRefusals atomic.Int64

	// WAL storage engine (internal/stable/wal) instrumentation.
	walRotations      atomic.Int64
	walCompactions    atomic.Int64
	walCompactedBytes atomic.Int64
	walCheckpoints    atomic.Int64
	fsyncs            atomic.Int64
	fsyncNanos        atomic.Int64

	// Replicated storage (internal/stable/repl) instrumentation.
	replBatches   atomic.Int64
	replAcks      atomic.Int64
	replSnapshots atomic.Int64

	latMu    sync.Mutex
	latCount int64
	latRing  []time.Duration
}

// Snapshot is a point-in-time copy of all counters.
type Snapshot struct {
	Messages          int64 // network messages delivered
	BytesSent         int64 // payload bytes put on the (simulated) wire
	AgentTransfers    int64 // agent containers moved to a *different* node
	AgentTransferByte int64 // encoded bytes of transferred agent containers
	StepTxns          int64 // committed step transactions
	StepTxnAborts     int64 // aborted step transactions
	CompTxns          int64 // committed compensation transactions
	CompTxnAborts     int64 // aborted compensation transactions
	CompOps           int64 // individual compensating operations executed
	RemoteCompBatches int64 // RCE lists shipped to a resource node (Fig. 5)
	Savepoints        int64 // savepoint entries written
	LogBytesPeak      int64 // largest encoded rollback log observed
	StableWrites      int64 // writes to stable storage
	StableBytes       int64 // bytes written to stable storage
	ContainerDecodes  int64 // agent containers decoded by node runtimes

	SchedClaims          int64 // queue entries claimed by scheduler workers
	SchedClaimConflicts  int64 // dispatches reordered past a conflicting task
	SchedLockAborts      int64 // step attempts aborted on 2PL lock conflicts
	SchedRetries         int64 // retryable step attempt failures
	SchedInFlightPeak    int64 // peak concurrently executing steps
	SchedQueueDepthPeak  int64 // peak observed input-queue depth
	SchedWorkerBusyNanos int64 // cumulative worker time spent executing

	NetFaultDrops       int64 // messages dropped by injected link faults
	NetFaultDups        int64 // duplicate deliveries injected by link faults
	NetFaultReorders    int64 // messages delayed past later traffic (reorder faults)
	NetUnreachableDrops int64 // messages lost to partitions / crashed destinations
	MailboxDrops        int64 // messages dropped at a full or closed mailbox

	NetBatches      int64                            // transport batches flushed (≥1 frames each)
	NetBatchedMsgs  int64                            // messages carried inside those batches
	NetBatchSize    [len(BatchSizeBuckets) + 1]int64 // frames-per-batch histogram (see BatchSizeBuckets)
	WireBytesByKind map[string]int64                 // payload bytes on the wire per message kind
	WireMsgsByKind  map[string]int64                 // messages on the wire per message kind

	DecisionBatches   int64                            // control-plane GC group commits flushed
	DecisionOps       int64                            // decision/done GC ops carried inside those commits
	DecisionBatchSize [len(BatchSizeBuckets) + 1]int64 // ops-per-commit histogram (see BatchSizeBuckets)
	AckPiggybacked    int64                            // acks/status replies that rode an existing outbound batch

	ProtocolTransitions int64 // protocol state-machine events processed
	TimersArmed         int64 // protocol timers armed on the wheel
	TimersFired         int64 // protocol timers that fired

	MemberAnnounces  int64 // membership announcements received over the wire
	RingChanges      int64 // local ring rebuilds after a view change
	Migrations       int64 // agents migrated off this node by the rebalancer
	MigrationBytes   int64 // encoded container bytes moved by migrations
	MigrationAborts  int64 // migration hand-offs aborted (retried later)
	AdoptionRefusals int64 // duplicate adoptions refused by the epoch guard

	WALRotations      int64 // WAL segments sealed and rotated
	WALCompactions    int64 // cold segments compacted and deleted
	WALCompactedBytes int64 // garbage bytes reclaimed by compaction
	WALCheckpoints    int64 // index checkpoints persisted
	Fsyncs            int64 // fsync calls issued by stable storage
	FsyncNanos        int64 // cumulative time spent in fsync

	ReplBatches   int64 // committed batches shipped to follower replicas
	ReplAcks      int64 // follower flush acknowledgements received
	ReplSnapshots int64 // full-snapshot catch-ups streamed to followers
}

// IncMessages records one delivered network message carrying n payload bytes.
func (c *Counters) IncMessages(n int64) {
	c.messages.Add(1)
	c.bytesSent.Add(n)
}

// IncAgentTransfer records an agent container of n encoded bytes moving
// between two distinct nodes.
func (c *Counters) IncAgentTransfer(n int64) {
	c.agentTransfers.Add(1)
	c.agentTransferByte.Add(n)
}

// IncContainerDecode records one agent container decoded by a node
// runtime (claim, step, rollback, failure or migration path).
func (c *Counters) IncContainerDecode() { c.containerDecodes.Add(1) }

// IncStepTxn records a committed step transaction.
func (c *Counters) IncStepTxn() { c.stepTxns.Add(1) }

// IncStepTxnAbort records an aborted step transaction.
func (c *Counters) IncStepTxnAbort() { c.stepTxnAborts.Add(1) }

// IncCompTxn records a committed compensation transaction.
func (c *Counters) IncCompTxn() { c.compTxns.Add(1) }

// IncCompTxnAbort records an aborted compensation transaction.
func (c *Counters) IncCompTxnAbort() { c.compTxnAborts.Add(1) }

// IncCompOps records n executed compensating operations.
func (c *Counters) IncCompOps(n int64) { c.compOps.Add(n) }

// IncRemoteCompBatch records one RCE list shipped to a resource node.
func (c *Counters) IncRemoteCompBatch() { c.remoteCompBatches.Add(1) }

// IncSavepoints records one savepoint entry written to a rollback log.
func (c *Counters) IncSavepoints() { c.savepoints.Add(1) }

// ObserveLogBytes tracks the peak encoded size of a rollback log.
func (c *Counters) ObserveLogBytes(n int64) {
	for {
		cur := c.logBytesPeak.Load()
		if n <= cur || c.logBytesPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// IncStableWrite records one stable-storage write of n bytes.
func (c *Counters) IncStableWrite(n int64) {
	c.stableWrites.Add(1)
	c.stableBytes.Add(n)
}

// IncSchedClaim records one claimed queue entry and the queue depth
// observed at claim time (peak-tracked).
func (c *Counters) IncSchedClaim(depth int64) {
	c.schedClaims.Add(1)
	peakMax(&c.queueDepthPeak, depth)
}

// IncClaimConflict records one conflict-aware dispatch decision: a ready
// task was passed over because its resource set collided with running work.
func (c *Counters) IncClaimConflict() { c.claimConflicts.Add(1) }

// IncLockConflictAbort records a step attempt aborted by a 2PL lock
// conflict between concurrent transactions.
func (c *Counters) IncLockConflictAbort() { c.lockAborts.Add(1) }

// IncSchedRetry records a retryable step attempt failure.
func (c *Counters) IncSchedRetry() { c.schedRetries.Add(1) }

// IncNetFaultDrop records one message dropped by an injected link fault.
func (c *Counters) IncNetFaultDrop() { c.netFaultDrops.Add(1) }

// IncNetFaultDup records one injected duplicate delivery.
func (c *Counters) IncNetFaultDup() { c.netFaultDups.Add(1) }

// IncNetFaultReorder records one message held back past later traffic.
func (c *Counters) IncNetFaultReorder() { c.netFaultReorders.Add(1) }

// IncNetUnreachableDrop records one message lost to a partitioned link or
// a crashed destination.
func (c *Counters) IncNetUnreachableDrop() { c.netUnreachableDrops.Add(1) }

// IncMailboxDrop records one message dropped at a full or closed mailbox.
func (c *Counters) IncMailboxDrop() { c.mailboxDrops.Add(1) }

// BatchSizeBuckets holds the upper bounds of the frames-per-batch
// histogram cells; a batch of n frames lands in the first cell whose
// bound is ≥ n, and the histogram has one extra unbounded cell at the
// end for anything larger.
var BatchSizeBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64}

// BatchBucketLabel returns the display label of histogram cell i.
func BatchBucketLabel(i int) string {
	if i >= len(BatchSizeBuckets) {
		return fmt.Sprintf(">%d", BatchSizeBuckets[len(BatchSizeBuckets)-1])
	}
	if i == 0 {
		return "1"
	}
	return fmt.Sprintf("%d-%d", BatchSizeBuckets[i-1]+1, BatchSizeBuckets[i])
}

// ObserveNetBatch records one transport batch carrying frames messages —
// one conn.Write on the TCP endpoint or one mailbox hop in the simulator.
func (c *Counters) ObserveNetBatch(frames int) {
	if frames <= 0 {
		return
	}
	c.netBatches.Add(1)
	c.netBatchedMsgs.Add(int64(frames))
	i := 0
	for i < len(BatchSizeBuckets) && int64(frames) > BatchSizeBuckets[i] {
		i++
	}
	c.netBatchHist[i].Add(1)
}

// ObserveDecisionBatch records one control-plane GC group commit
// carrying ops staged decision-record clears / done-record drops.
func (c *Counters) ObserveDecisionBatch(ops int) {
	if ops <= 0 {
		return
	}
	c.decisionBatches.Add(1)
	c.decisionOps.Add(int64(ops))
	i := 0
	for i < len(BatchSizeBuckets) && int64(ops) > BatchSizeBuckets[i] {
		i++
	}
	c.decisionBatchHist[i].Add(1)
}

// IncAckPiggybacked records n non-blocking replies that rode an outbound
// batch already headed to their peer instead of flushing their own frame.
func (c *Counters) IncAckPiggybacked(n int64) { c.ackPiggybacked.Add(n) }

// AddWireBytes attributes one wire message of n payload bytes to its
// message kind (every transport calls it exactly once per message, so
// it also maintains the per-kind message counts).
func (c *Counters) AddWireBytes(kind string, n int64) {
	c.wireMu.Lock()
	if c.wireBytesByKind == nil {
		c.wireBytesByKind = make(map[string]int64)
		c.wireMsgsByKind = make(map[string]int64)
	}
	c.wireBytesByKind[kind] += n
	c.wireMsgsByKind[kind]++
	c.wireMu.Unlock()
}

// IncProtocolTransition records one event processed by a node's
// protocol state machine.
func (c *Counters) IncProtocolTransition() { c.protocolTransitions.Add(1) }

// IncTimerArmed records one protocol timer armed (or re-armed) on a
// node's timer wheel.
func (c *Counters) IncTimerArmed() { c.timersArmed.Add(1) }

// IncTimerFired records one protocol timer firing.
func (c *Counters) IncTimerFired() { c.timersFired.Add(1) }

// IncMemberAnnounce records one membership announcement received.
func (c *Counters) IncMemberAnnounce() { c.memberAnnounces.Add(1) }

// IncRingChange records one local consistent-hash ring rebuild.
func (c *Counters) IncRingChange() { c.ringChanges.Add(1) }

// IncMigration records one agent migrated off this node (container of n
// encoded bytes handed to its new owner through the 2PC hand-off).
func (c *Counters) IncMigration(n int64) {
	c.migrations.Add(1)
	c.migrationBytes.Add(n)
}

// IncMigrationAbort records one migration hand-off that aborted (the
// rebalancer retries on the next sweep).
func (c *Counters) IncMigrationAbort() { c.migrationAborts.Add(1) }

// IncAdoptionRefusal records a duplicate adoption refused by the
// destination's agent-epoch guard.
func (c *Counters) IncAdoptionRefusal() { c.adoptionRefusals.Add(1) }

// IncWALRotation records one WAL segment sealed and a new one opened.
func (c *Counters) IncWALRotation() { c.walRotations.Add(1) }

// IncWALCompaction records one compacted segment and the garbage bytes it
// held (reclaimed disk space).
func (c *Counters) IncWALCompaction(reclaimed int64) {
	c.walCompactions.Add(1)
	c.walCompactedBytes.Add(reclaimed)
}

// IncWALCheckpoint records one persisted index checkpoint.
func (c *Counters) IncWALCheckpoint() { c.walCheckpoints.Add(1) }

// ObserveFsync records one fsync call and its duration.
func (c *Counters) ObserveFsync(d time.Duration) {
	c.fsyncs.Add(1)
	c.fsyncNanos.Add(int64(d))
}

// IncReplBatch records one committed batch shipped to follower replicas.
func (c *Counters) IncReplBatch() { c.replBatches.Add(1) }

// IncReplAck records one follower flush acknowledgement received.
func (c *Counters) IncReplAck() { c.replAcks.Add(1) }

// IncReplSnapshot records one full-snapshot catch-up streamed to a
// lagging or freshly (re)joined follower.
func (c *Counters) IncReplSnapshot() { c.replSnapshots.Add(1) }

// StepStarted marks one step entering execution; it returns the current
// in-flight count. Pair with StepFinished.
func (c *Counters) StepStarted() int64 {
	n := c.inFlight.Add(1)
	peakMax(&c.inFlightPeak, n)
	return n
}

// StepFinished marks one step leaving execution after busy time d,
// recording its latency for percentile reporting when ok.
func (c *Counters) StepFinished(d time.Duration, ok bool) {
	c.inFlight.Add(-1)
	c.workerBusyNanos.Add(int64(d))
	if !ok {
		return
	}
	c.latMu.Lock()
	if c.latRing == nil {
		c.latRing = make([]time.Duration, 0, latRingSize)
	}
	if len(c.latRing) < latRingSize {
		c.latRing = append(c.latRing, d)
	} else {
		c.latRing[c.latCount%latRingSize] = d
	}
	c.latCount++
	c.latMu.Unlock()
}

// InFlight returns the number of steps currently executing.
func (c *Counters) InFlight() int64 { return c.inFlight.Load() }

// LatencyBuckets holds the upper bounds of the step-latency histogram
// cells; observations above the last bound land in the overflow cell.
var LatencyBuckets = [...]time.Duration{
	100 * time.Microsecond, 300 * time.Microsecond,
	time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond,
	30 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond,
	time.Second, 3 * time.Second,
}

// LatencyBucketLabel returns a stable label for histogram cell i, e.g.
// "le_3ms" or "inf" for the overflow cell.
func LatencyBucketLabel(i int) string {
	if i >= len(LatencyBuckets) {
		return "inf"
	}
	return "le_" + LatencyBuckets[i].String()
}

// LatencySummary describes the distribution of the most recent
// successful step executions, computed from a bounded reservoir.
type LatencySummary struct {
	P50, P90, P99, P999 time.Duration
	Count               int64 // total observations, not bounded by the reservoir
	// Buckets is the reservoir histogram: cell i counts observations
	// ≤ LatencyBuckets[i]; the final cell is unbounded.
	Buckets [len(LatencyBuckets) + 1]int64
}

// StepLatency reports percentiles and a histogram of the most recent
// successful step executions (bounded reservoir) plus the total number
// observed.
func (c *Counters) StepLatency() LatencySummary {
	c.latMu.Lock()
	buf := append([]time.Duration(nil), c.latRing...)
	n := c.latCount
	c.latMu.Unlock()
	sum := LatencySummary{Count: n}
	if len(buf) == 0 {
		return sum
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(buf)-1))
		return buf[i]
	}
	sum.P50, sum.P90, sum.P99, sum.P999 = pct(0.50), pct(0.90), pct(0.99), pct(0.999)
	// buf is sorted, so walk the bucket bounds in lockstep.
	b := 0
	for _, d := range buf {
		for b < len(LatencyBuckets) && d > LatencyBuckets[b] {
			b++
		}
		sum.Buckets[b]++
	}
	return sum
}

func peakMax(peak *atomic.Int64, n int64) {
	for {
		cur := peak.Load()
		if n <= cur || peak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() Snapshot {
	var hist, dhist [len(BatchSizeBuckets) + 1]int64
	for i := range c.netBatchHist {
		hist[i] = c.netBatchHist[i].Load()
		dhist[i] = c.decisionBatchHist[i].Load()
	}
	c.wireMu.Lock()
	bytesByKind := copyKindMap(c.wireBytesByKind)
	msgsByKind := copyKindMap(c.wireMsgsByKind)
	c.wireMu.Unlock()
	return Snapshot{
		NetBatches:      c.netBatches.Load(),
		NetBatchedMsgs:  c.netBatchedMsgs.Load(),
		NetBatchSize:    hist,
		WireBytesByKind: bytesByKind,
		WireMsgsByKind:  msgsByKind,

		DecisionBatches:   c.decisionBatches.Load(),
		DecisionOps:       c.decisionOps.Load(),
		DecisionBatchSize: dhist,
		AckPiggybacked:    c.ackPiggybacked.Load(),

		Messages:          c.messages.Load(),
		BytesSent:         c.bytesSent.Load(),
		AgentTransfers:    c.agentTransfers.Load(),
		AgentTransferByte: c.agentTransferByte.Load(),
		StepTxns:          c.stepTxns.Load(),
		StepTxnAborts:     c.stepTxnAborts.Load(),
		CompTxns:          c.compTxns.Load(),
		CompTxnAborts:     c.compTxnAborts.Load(),
		CompOps:           c.compOps.Load(),
		RemoteCompBatches: c.remoteCompBatches.Load(),
		Savepoints:        c.savepoints.Load(),
		LogBytesPeak:      c.logBytesPeak.Load(),
		StableWrites:      c.stableWrites.Load(),
		StableBytes:       c.stableBytes.Load(),
		ContainerDecodes:  c.containerDecodes.Load(),

		SchedClaims:          c.schedClaims.Load(),
		SchedClaimConflicts:  c.claimConflicts.Load(),
		SchedLockAborts:      c.lockAborts.Load(),
		SchedRetries:         c.schedRetries.Load(),
		SchedInFlightPeak:    c.inFlightPeak.Load(),
		SchedQueueDepthPeak:  c.queueDepthPeak.Load(),
		SchedWorkerBusyNanos: c.workerBusyNanos.Load(),

		NetFaultDrops:       c.netFaultDrops.Load(),
		NetFaultDups:        c.netFaultDups.Load(),
		NetFaultReorders:    c.netFaultReorders.Load(),
		NetUnreachableDrops: c.netUnreachableDrops.Load(),
		MailboxDrops:        c.mailboxDrops.Load(),

		ProtocolTransitions: c.protocolTransitions.Load(),
		TimersArmed:         c.timersArmed.Load(),
		TimersFired:         c.timersFired.Load(),

		MemberAnnounces:  c.memberAnnounces.Load(),
		RingChanges:      c.ringChanges.Load(),
		Migrations:       c.migrations.Load(),
		MigrationBytes:   c.migrationBytes.Load(),
		MigrationAborts:  c.migrationAborts.Load(),
		AdoptionRefusals: c.adoptionRefusals.Load(),

		WALRotations:      c.walRotations.Load(),
		WALCompactions:    c.walCompactions.Load(),
		WALCompactedBytes: c.walCompactedBytes.Load(),
		WALCheckpoints:    c.walCheckpoints.Load(),
		Fsyncs:            c.fsyncs.Load(),
		FsyncNanos:        c.fsyncNanos.Load(),

		ReplBatches:   c.replBatches.Load(),
		ReplAcks:      c.replAcks.Load(),
		ReplSnapshots: c.replSnapshots.Load(),
	}
}

// copyKindMap returns a copy of m, or nil if m is empty.
func copyKindMap(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// subKindMap returns the per-key difference s - o, dropping zero deltas
// and negating keys present only in o. Returns nil when every delta is
// zero (or both maps are empty) so that equal snapshots diff to the
// zero Snapshot.
func subKindMap(s, o map[string]int64) map[string]int64 {
	if len(s) == 0 && len(o) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s))
	for k, v := range s {
		if d := v - o[k]; d != 0 {
			out[k] = d
		}
	}
	for k, v := range o {
		if _, ok := s[k]; !ok && v != 0 {
			out[k] = -v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Sub returns the component-wise difference s - o.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	var hist, dhist [len(BatchSizeBuckets) + 1]int64
	for i := range hist {
		hist[i] = s.NetBatchSize[i] - o.NetBatchSize[i]
		dhist[i] = s.DecisionBatchSize[i] - o.DecisionBatchSize[i]
	}
	return Snapshot{
		NetBatches:      s.NetBatches - o.NetBatches,
		NetBatchedMsgs:  s.NetBatchedMsgs - o.NetBatchedMsgs,
		NetBatchSize:    hist,
		WireBytesByKind: subKindMap(s.WireBytesByKind, o.WireBytesByKind),
		WireMsgsByKind:  subKindMap(s.WireMsgsByKind, o.WireMsgsByKind),

		DecisionBatches:   s.DecisionBatches - o.DecisionBatches,
		DecisionOps:       s.DecisionOps - o.DecisionOps,
		DecisionBatchSize: dhist,
		AckPiggybacked:    s.AckPiggybacked - o.AckPiggybacked,

		Messages:          s.Messages - o.Messages,
		BytesSent:         s.BytesSent - o.BytesSent,
		AgentTransfers:    s.AgentTransfers - o.AgentTransfers,
		AgentTransferByte: s.AgentTransferByte - o.AgentTransferByte,
		StepTxns:          s.StepTxns - o.StepTxns,
		StepTxnAborts:     s.StepTxnAborts - o.StepTxnAborts,
		CompTxns:          s.CompTxns - o.CompTxns,
		CompTxnAborts:     s.CompTxnAborts - o.CompTxnAborts,
		CompOps:           s.CompOps - o.CompOps,
		RemoteCompBatches: s.RemoteCompBatches - o.RemoteCompBatches,
		Savepoints:        s.Savepoints - o.Savepoints,
		LogBytesPeak:      s.LogBytesPeak, // peak is not differential
		StableWrites:      s.StableWrites - o.StableWrites,
		StableBytes:       s.StableBytes - o.StableBytes,
		ContainerDecodes:  s.ContainerDecodes - o.ContainerDecodes,

		SchedClaims:          s.SchedClaims - o.SchedClaims,
		SchedClaimConflicts:  s.SchedClaimConflicts - o.SchedClaimConflicts,
		SchedLockAborts:      s.SchedLockAborts - o.SchedLockAborts,
		SchedRetries:         s.SchedRetries - o.SchedRetries,
		SchedInFlightPeak:    s.SchedInFlightPeak, // peak is not differential
		SchedQueueDepthPeak:  s.SchedQueueDepthPeak,
		SchedWorkerBusyNanos: s.SchedWorkerBusyNanos - o.SchedWorkerBusyNanos,

		NetFaultDrops:       s.NetFaultDrops - o.NetFaultDrops,
		NetFaultDups:        s.NetFaultDups - o.NetFaultDups,
		NetFaultReorders:    s.NetFaultReorders - o.NetFaultReorders,
		NetUnreachableDrops: s.NetUnreachableDrops - o.NetUnreachableDrops,
		MailboxDrops:        s.MailboxDrops - o.MailboxDrops,

		ProtocolTransitions: s.ProtocolTransitions - o.ProtocolTransitions,
		TimersArmed:         s.TimersArmed - o.TimersArmed,
		TimersFired:         s.TimersFired - o.TimersFired,

		MemberAnnounces:  s.MemberAnnounces - o.MemberAnnounces,
		RingChanges:      s.RingChanges - o.RingChanges,
		Migrations:       s.Migrations - o.Migrations,
		MigrationBytes:   s.MigrationBytes - o.MigrationBytes,
		MigrationAborts:  s.MigrationAborts - o.MigrationAborts,
		AdoptionRefusals: s.AdoptionRefusals - o.AdoptionRefusals,

		WALRotations:      s.WALRotations - o.WALRotations,
		WALCompactions:    s.WALCompactions - o.WALCompactions,
		WALCompactedBytes: s.WALCompactedBytes - o.WALCompactedBytes,
		WALCheckpoints:    s.WALCheckpoints - o.WALCheckpoints,
		Fsyncs:            s.Fsyncs - o.Fsyncs,
		FsyncNanos:        s.FsyncNanos - o.FsyncNanos,

		ReplBatches:   s.ReplBatches - o.ReplBatches,
		ReplAcks:      s.ReplAcks - o.ReplAcks,
		ReplSnapshots: s.ReplSnapshots - o.ReplSnapshots,
	}
}
