package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	"repro/internal/txn"
)

// Cluster shape shared by every workload.
const (
	numNodes   = 4
	numWorkers = 2
	numBanks   = 8 // per node; each agent deposits into one, so 2PL locks rarely meet
	numSteps   = 4
	sink       = "sink"
)

var nodeNames = [numNodes]string{"n0", "n1", "n2", "n3"}

// workloadSpec describes what a workload runs on.
type workloadSpec struct {
	engine   string
	repl     stable.ReplSpec
	rollback bool // agents roll their sub-itinerary back once
	// retryDelay overrides the nodes' retry delay (and with it the
	// resend interval, five times as long); zero keeps the default.
	retryDelay time.Duration
}

// agentSpec is one generated agent: the program only ever sees these.
type agentSpec struct {
	id    string
	start int // start node index
	bank  int
}

// bench is one built cluster with the benchmark's handlers registered.
type bench struct {
	w   workloadSpec
	cl  *cluster.Cluster
	dir string
	// Agents resolved on this cluster: completed, and failed or still
	// unresolved at their phase's deadline.
	completed, lost int
}

// agentIndex recovers the spec index from an agent ID ("<index>-<hex>").
func agentIndex(id string) int32 {
	i := strings.IndexByte(id, '-')
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(id[:i])
	if err != nil {
		return -1
	}
	return int32(n)
}

// buildBench builds and starts a 4-node cluster, registers the step and
// compensation handlers and opens the sink accounts: the set-up a user of
// the platform pays before the first agent.
func buildBench(w workloadSpec, dir string, counters *metrics.Counters) (*bench, error) {
	b := &bench{w: w, dir: dir}
	b.cl = cluster.New(cluster.Options{
		Workers:    numWorkers,
		RetryDelay: w.retryDelay,
		Counters:   counters,
		Store: stable.Spec{
			Engine:   w.engine,
			Dir:      dir,
			Repl:     w.repl,
			Counters: counters,
		},
	})
	if err := b.setup(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) setup() error {
	for _, name := range nodeNames {
		var factories []node.ResourceFactory
		for k := 0; k < numBanks; k++ {
			bank := bankName(k)
			factories = append(factories, func(store stable.Store) (resource.Resource, error) {
				return resource.NewBank(store, bank, true)
			})
		}
		if err := b.cl.AddNode(name, factories...); err != nil {
			return err
		}
	}
	if err := b.register(); err != nil {
		return err
	}
	if err := b.cl.Start(); err != nil {
		return err
	}
	for _, name := range nodeNames {
		nd, ok := b.cl.Node(name)
		if !ok {
			return fmt.Errorf("node %s missing after start", name)
		}
		if err := b.cl.WithTx(name, func(tx *txn.Tx, _ *node.Node) error {
			for k := 0; k < numBanks; k++ {
				r, _ := nd.Resource(bankName(k))
				if err := r.(*resource.Bank).OpenAccount(tx, sink, 0); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) close() {
	b.cl.Close()
	if b.dir != "" {
		_ = os.RemoveAll(b.dir)
	}
}

func bankName(k int) string { return "bank" + strconv.Itoa(k) }

// register installs the benchmark's own handlers. Each one times itself
// and its Bank calls as spans while the recorder traces.
func (b *bench) register() error {
	reg := b.cl.Registry()
	if err := reg.RegisterStep("bench.step", b.step); err != nil {
		return err
	}
	if err := reg.RegisterStepHints("bench.step", func(a *agent.Agent, _ itinerary.Step) []string {
		var bank string
		if _, err := a.WRO.Get("bank", &bank); err != nil {
			return nil
		}
		return []string{bank}
	}); err != nil {
		return err
	}
	if err := reg.RegisterStep("bench.decide", b.decide); err != nil {
		return err
	}
	if err := reg.RegisterComp("bench.undo", b.undo); err != nil {
		return err
	}
	return reg.RegisterComp("bench.note", b.note)
}

// undoneKey counts, in the agent's weakly reversible space, the agent
// compensations run for it; it survives the rollback and tells the
// re-executed pass from the first.
const undoneKey = "undone"

func undone(ws *agent.Space) (int64, error) {
	var n int64
	_, err := ws.Get(undoneKey, &n)
	return n, err
}

// step deposits 1 into the agent's bank at this node and logs the
// matching compensations.
func (b *bench) step(ctx agent.StepContext) error {
	sp := rec.begin()
	var bank string
	if _, err := ctx.WRO().Get("bank", &bank); err != nil {
		return err
	}
	var pass int8
	if b.w.rollback {
		n, err := undone(ctx.WRO())
		if err != nil {
			return err
		}
		if n > 0 {
			pass = 1
		}
	}
	r, ok := ctx.Resource(bank)
	if !ok {
		return errors.New("bench.step: no bank " + bank)
	}
	bs := rec.begin()
	err := r.(*resource.Bank).Deposit(ctx.Tx(), sink, 1)
	idx := agentIndex(ctx.AgentID())
	rec.end(bs, span{kind: spanDeposit, agent: idx, parent: sp.id, seq: -1})
	if err != nil {
		return err
	}
	ctx.LogComp(core.OpResource, "bench.undo", core.NewParams().
		Set("bank", bank).Set("agent", ctx.AgentID()))
	if b.w.rollback {
		ctx.LogComp(core.OpAgent, "bench.note", core.NewParams().Set("agent", ctx.AgentID()))
	}
	rec.end(sp, span{kind: spanStep, agent: idx, parent: rec.agentSpan(idx),
		seq: int16(ctx.StepSeq()), pass: pass, node: nodeIndex(ctx.NodeName())})
	return nil
}

// decide rolls the current sub-itinerary back on the first pass and
// accepts the re-executed one.
func (b *bench) decide(ctx agent.StepContext) error {
	sp := rec.begin()
	n, err := undone(ctx.WRO())
	if err != nil {
		return err
	}
	var pass int8
	if n > 0 {
		pass = 1
	}
	idx := agentIndex(ctx.AgentID())
	rec.end(sp, span{kind: spanDecide, agent: idx, parent: rec.agentSpan(idx),
		seq: int16(ctx.StepSeq()), pass: pass, node: nodeIndex(ctx.NodeName())})
	if pass == 0 {
		return ctx.RollbackCurrentSub()
	}
	return nil
}

// undo is the resource compensation: withdraw the step's deposit.
func (b *bench) undo(ctx agent.CompContext) error {
	sp := rec.begin()
	var bank, id string
	if err := ctx.Params().Get("bank", &bank); err != nil {
		return err
	}
	if err := ctx.Params().Get("agent", &id); err != nil {
		return err
	}
	r, err := ctx.Resource(bank)
	if err != nil {
		return err
	}
	idx := agentIndex(id)
	bs := rec.begin()
	err = r.(*resource.Bank).Withdraw(ctx.Tx(), sink, 1)
	rec.end(bs, span{kind: spanWithdraw, agent: idx, parent: sp.id, seq: -1})
	if err != nil {
		return err
	}
	rec.end(sp, span{kind: spanUndo, agent: idx, parent: rec.agentSpan(idx), seq: -1,
		node: nodeIndex(ctx.NodeName())})
	return nil
}

// note is the agent compensation: count itself in the WRO space.
func (b *bench) note(ctx agent.CompContext) error {
	sp := rec.begin()
	var id string
	if err := ctx.Params().Get("agent", &id); err != nil {
		return err
	}
	ws, err := ctx.WRO()
	if err != nil {
		return err
	}
	n, err := undone(ws)
	if err != nil {
		return err
	}
	if err := ws.Set(undoneKey, n+1); err != nil {
		return err
	}
	idx := agentIndex(id)
	rec.end(sp, span{kind: spanNote, agent: idx, parent: rec.agentSpan(idx), seq: -1,
		node: nodeIndex(ctx.NodeName())})
	return nil
}

func nodeIndex(name string) uint8 {
	for i, n := range nodeNames {
		if n == name {
			return uint8(i)
		}
	}
	return 255
}

// newAgent builds the generated agent: numSteps deposit steps round-robin
// over the nodes from its start node, plus a decide step back at the
// start node when the workload rolls back.
func (b *bench) newAgent(s agentSpec) (*agent.Agent, []string, error) {
	sub := &itinerary.Sub{ID: "errand"}
	for k := 0; k < numSteps; k++ {
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "bench.step", Loc: nodeNames[(s.start+k)%numNodes]})
	}
	if b.w.rollback {
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "bench.decide", Loc: nodeNames[s.start]})
	}
	it, err := itinerary.New(sub)
	if err != nil {
		return nil, nil, err
	}
	a, entered, err := agent.NewAt(s.id, "", it, nodeNames[s.start])
	if err != nil {
		return nil, nil, err
	}
	if err := a.WRO.Set("bank", bankName(s.bank)); err != nil {
		return nil, nil, err
	}
	return a, entered, nil
}

// checkResult verifies one resolved agent's own output: a rolled-back
// agent ran exactly numSteps agent compensations (one rollback).
func (b *bench) checkResult(r cluster.Result) error {
	if r.Failed || !b.w.rollback {
		return nil
	}
	if r.Agent == nil {
		return fmt.Errorf("agent %s: result without agent", r.AgentID)
	}
	n, err := undone(r.Agent.WRO)
	if err != nil {
		return err
	}
	if n != numSteps {
		return fmt.Errorf("agent %s: %d agent compensations, want %d (one rollback)", r.AgentID, n, numSteps)
	}
	return nil
}

// checkSink verifies exactly-once execution: every completed agent left
// numSteps deposits in the sinks, after any compensations. A failed or
// unresolved agent may have left between none and all of its own.
func (b *bench) checkSink() error {
	got, err := b.sinkTotal()
	if err != nil {
		return fmt.Errorf("sink: %w", err)
	}
	lo, hi := int64(b.completed*numSteps), int64((b.completed+b.lost)*numSteps)
	if got < lo || got > hi {
		return fmt.Errorf("sink total %d, want %d (%d completed agents × %d steps)", got, lo, b.completed, numSteps)
	}
	return nil
}

// sinkTotal sums the sink accounts of every bank on every node.
func (b *bench) sinkTotal() (int64, error) {
	var total int64
	for _, name := range nodeNames {
		nd, ok := b.cl.Node(name)
		if !ok {
			return 0, fmt.Errorf("node %s missing", name)
		}
		if err := b.cl.WithTx(name, func(tx *txn.Tx, _ *node.Node) error {
			for k := 0; k < numBanks; k++ {
				r, _ := nd.Resource(bankName(k))
				bal, err := r.(*resource.Bank).Balance(tx, sink)
				if err != nil {
					return err
				}
				total += bal
			}
			return nil
		}); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// probeContainer times node.EncodeContainer/DecodeContainer on the
// container the benchmark launches for spec s, as Cluster.Launch builds it.
func (b *bench) probeContainer(s agentSpec) (bytes int, encUS, decUS, allocs float64, err error) {
	a, entered, err := b.newAgent(s)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	a.Owner = "~collector"
	if err := node.AppendInitialSavepointsMode(a, entered, core.StateLogging, false); err != nil {
		return 0, 0, 0, 0, err
	}
	c := &node.Container{Mode: node.ModeStep, Agent: a}
	data, err := node.EncodeContainer(c)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	const rounds = 2000
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := node.EncodeContainer(c); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	encUS = float64(time.Since(start).Nanoseconds()) / rounds / 1e3
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := node.DecodeContainer(data); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	decUS = float64(time.Since(start).Nanoseconds()) / rounds / 1e3
	allocs = mallocsPer(rounds, func() {
		enc, _ := node.EncodeContainer(c)
		_, _ = node.DecodeContainer(enc)
	})
	return len(data), encUS, decUS, allocs, nil
}
