package cluster_test

// Concurrency tests for the multi-worker step scheduler (internal/sched):
// serializability and exactly-once completion under 8 workers hammering
// conflicting resources, and crash recovery with multiple claimed
// in-flight agents. Run with -race.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/txn"
)

// transferCluster builds a one-node cluster with nBanks banks, each
// seeded with "pool"=seed and "sink"=0, and a "sched.transfer" step that
// moves 1 from pool to sink in the bank named by the agent's WRO —
// with a matching compensation and a registered conflict hint.
func transferCluster(t *testing.T, workers, nBanks int, seed int64) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Options{
		Workers:    workers,
		RetryDelay: time.Millisecond,
		AckTimeout: 2 * time.Second,
	})
	var factories []node.ResourceFactory
	for i := 0; i < nBanks; i++ {
		factories = append(factories, bankFactory(fmt.Sprintf("bank%d", i), false))
	}
	if err := cl.AddNode("n0", factories...); err != nil {
		t.Fatal(err)
	}
	reg := cl.Registry()
	if err := reg.RegisterStep("sched.transfer", func(ctx agent.StepContext) error {
		var bank string
		if _, err := ctx.WRO().Get("bank", &bank); err != nil {
			return err
		}
		r, ok := ctx.Resource(bank)
		if !ok {
			return errors.New("sched.transfer: no bank " + bank)
		}
		if err := r.(*resource.Bank).Transfer(ctx.Tx(), "pool", "sink", 1); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "sched.untransfer", core.NewParams().
			Set("bank", bank))
		// Hold the transaction open briefly so step transactions overlap
		// even on a single CPU — otherwise the serializability assertions
		// would only ever see serial execution.
		time.Sleep(500 * time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterStepHints("sched.transfer",
		func(a *agent.Agent, _ itinerary.Step) []string {
			var bank string
			if _, err := a.WRO.Get("bank", &bank); err != nil {
				return nil
			}
			return []string{bank}
		}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterComp("sched.untransfer", func(ctx agent.CompContext) error {
		var bank string
		if err := ctx.Params().Get("bank", &bank); err != nil {
			return err
		}
		r, err := ctx.Resource(bank)
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Transfer(ctx.Tx(), "sink", "pool", 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for i := 0; i < nBanks; i++ {
		name := fmt.Sprintf("bank%d", i)
		if err := cl.WithTx("n0", func(tx *txn.Tx, n *node.Node) error {
			b := mustBank(t, n, name)
			if err := b.OpenAccount(tx, "pool", seed); err != nil {
				return err
			}
			return b.OpenAccount(tx, "sink", 0)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// transferAgent builds an agent running `steps` sched.transfer steps on
// n0 against the given bank.
func transferAgent(t *testing.T, id, bank string, steps int) (*agent.Agent, []string) {
	t.Helper()
	sub := &itinerary.Sub{ID: "job-" + id}
	for s := 0; s < steps; s++ {
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "sched.transfer", Loc: "n0"})
	}
	it, err := itinerary.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New(id, "", it)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.Set("bank", bank); err != nil {
		t.Fatal(err)
	}
	return a, entered
}

// bankTotals returns (pool, sink) summed over all banks of n0.
func bankTotals(t *testing.T, cl *cluster.Cluster, nBanks int) (pool, sink int64) {
	t.Helper()
	for i := 0; i < nBanks; i++ {
		name := fmt.Sprintf("bank%d", i)
		if err := cl.WithTx("n0", func(tx *txn.Tx, n *node.Node) error {
			b := mustBank(t, n, name)
			p, err := b.Balance(tx, "pool")
			if err != nil {
				return err
			}
			s, err := b.Balance(tx, "sink")
			if err != nil {
				return err
			}
			pool += p
			sink += s
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return pool, sink
}

// TestContainerDecodedOncePerStep: on a fault-free forward run the node
// runtimes decode each claimed container once — the scheduler's conflict
// hint decodes it and the step transaction reuses that decode.
func TestContainerDecodedOncePerStep(t *testing.T) {
	const (
		agents = 8
		steps  = 4
	)
	cl := transferCluster(t, 2, agents, 100) // one bank per agent: no conflicts
	var chans []<-chan cluster.Result
	for i := 0; i < agents; i++ {
		a, entered := transferAgent(t, fmt.Sprintf("once%02d", i), fmt.Sprintf("bank%d", i), steps)
		ch, err := cl.Launch(a, entered, "n0")
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("agent %s failed: %s", res.AgentID, res.Reason)
			}
		case <-time.After(testTimeout):
			t.Fatal("timed out waiting for agents")
		}
	}
	s := cl.Counters().Snapshot()
	if s.StepTxns != agents*steps || s.SchedRetries != 0 {
		t.Fatalf("run not fault-free: %d step txns (want %d), %d retries", s.StepTxns, agents*steps, s.SchedRetries)
	}
	if perStep := float64(s.ContainerDecodes) / float64(s.StepTxns); perStep > 1.0 {
		t.Errorf("%d container decodes for %d committed steps (%.2f per step, want <= 1)", s.ContainerDecodes, s.StepTxns, perStep)
	}
}

// TestConcurrentWorkersSerializable runs 8 workers over 32 agents that
// all hammer the same two bank resources. Strict 2PL must serialize the
// concurrent step transactions: money is conserved, every agent
// completes exactly once, and the sink holds exactly agents×steps.
func TestConcurrentWorkersSerializable(t *testing.T) {
	const (
		workers = 8
		agents  = 32
		steps   = 4
		nBanks  = 2
		seed    = 10_000
	)
	cl := transferCluster(t, workers, nBanks, seed)

	var chans []<-chan cluster.Result
	for i := 0; i < agents; i++ {
		a, entered := transferAgent(t, fmt.Sprintf("racer%02d", i),
			fmt.Sprintf("bank%d", i%nBanks), steps)
		ch, err := cl.Launch(a, entered, "n0")
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	deadline := time.After(testTimeout)
	done := make(map[string]bool)
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("agent %s failed: %s", res.AgentID, res.Reason)
			}
			if done[res.AgentID] {
				t.Fatalf("agent %s completed twice", res.AgentID)
			}
			done[res.AgentID] = true
		case <-deadline:
			t.Fatal("timed out waiting for agents")
		}
	}
	pool, sink := bankTotals(t, cl, nBanks)
	if want := int64(agents * steps); sink != want {
		t.Errorf("sink = %d, want %d (lost or duplicated steps)", sink, want)
	}
	if pool+sink != int64(nBanks*seed) {
		t.Errorf("money not conserved: pool %d + sink %d != %d", pool, sink, nBanks*seed)
	}
	s := cl.Counters().Snapshot()
	if s.StepTxns != int64(agents*steps) {
		t.Errorf("committed step txns = %d, want %d", s.StepTxns, agents*steps)
	}
	if s.SchedInFlightPeak < 2 {
		t.Errorf("in-flight peak = %d: scheduler never overlapped steps", s.SchedInFlightPeak)
	}
	t.Logf("in-flight peak %d, claim conflicts %d, lock aborts %d, retries %d",
		s.SchedInFlightPeak, s.SchedClaimConflicts, s.SchedLockAborts, s.SchedRetries)
}

// TestConcurrentRollbackSerializable mixes rolling-back agents into the
// concurrent load: every agent transfers then rolls its sub-itinerary
// back, so compensations and forward steps interleave across 8 workers.
// The compensation restores the pool exactly.
func TestConcurrentRollbackSerializable(t *testing.T) {
	const (
		workers = 8
		agents  = 16
		nBanks  = 2
		seed    = 10_000
	)
	cl := transferCluster(t, workers, nBanks, seed)
	reg := cl.Registry()
	// rbtransfer additionally logs an agent compensation that marks the
	// rollback in the WRO — compensation produces information (§4.1), and
	// that information is what terminates the rollback loop.
	if err := reg.RegisterStep("sched.rbtransfer", func(ctx agent.StepContext) error {
		var bank string
		if _, err := ctx.WRO().Get("bank", &bank); err != nil {
			return err
		}
		r, ok := ctx.Resource(bank)
		if !ok {
			return errors.New("sched.rbtransfer: no bank " + bank)
		}
		if err := r.(*resource.Bank).Transfer(ctx.Tx(), "pool", "sink", 1); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "sched.untransfer", core.NewParams().Set("bank", bank))
		ctx.LogComp(core.OpAgent, "sched.markRolled", core.NewParams())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterComp("sched.markRolled", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("rolled", true)
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterStep("sched.maybeRollback", func(ctx agent.StepContext) error {
		rolled, err := ctx.WRO().Has("rolled")
		if err != nil {
			return err
		}
		if rolled {
			return nil
		}
		return ctx.RollbackCurrentSub()
	}); err != nil {
		t.Fatal(err)
	}

	var chans []<-chan cluster.Result
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("roller%02d", i)
		sub := &itinerary.Sub{ID: "job-" + id, Entries: []itinerary.Entry{
			itinerary.Step{Method: "sched.rbtransfer", Loc: "n0"},
			itinerary.Step{Method: "sched.rbtransfer", Loc: "n0"},
			itinerary.Step{Method: "sched.maybeRollback", Loc: "n0"},
		}}
		it, err := itinerary.New(sub)
		if err != nil {
			t.Fatal(err)
		}
		a, entered, err := agent.New(id, "", it)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.WRO.Set("bank", fmt.Sprintf("bank%d", i%nBanks)); err != nil {
			t.Fatal(err)
		}
		ch, err := cl.Launch(a, entered, "n0")
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	deadline := time.After(testTimeout)
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("agent %s failed: %s", res.AgentID, res.Reason)
			}
		case <-deadline:
			t.Fatal("timed out waiting for agents")
		}
	}
	// Each agent: 2 deposits, rollback (2 withdrawals), then 2 deposits
	// again on the re-run — net 2 per agent.
	pool, sink := bankTotals(t, cl, nBanks)
	if want := int64(agents * 2); sink != want {
		t.Errorf("sink = %d, want %d (compensation raced a step)", sink, want)
	}
	if pool+sink != int64(nBanks*seed) {
		t.Errorf("money not conserved: pool %d + sink %d", pool, sink)
	}
	if s := cl.Counters().Snapshot(); s.CompOps == 0 {
		t.Error("no compensating operations ran; rollback path untested")
	}
}

// TestCrashWithClaimedInFlightAgents crashes a 4-worker node while
// several step transactions are claimed and executing, then recovers it.
// Claims are volatile, so recovery must re-run every unfinished agent —
// and the destructive queue read inside each step's commit batch must
// prevent any duplication: the sink ends at exactly agents×steps.
func TestCrashWithClaimedInFlightAgents(t *testing.T) {
	const (
		workers = 4
		agents  = 12
		steps   = 4
		nBanks  = 2
		seed    = 10_000
	)
	cl := transferCluster(t, workers, nBanks, seed)
	reg := cl.Registry()
	// A slowed variant keeps transactions in flight long enough for the
	// crash to land mid-step.
	if err := reg.RegisterStep("sched.slowTransfer", func(ctx agent.StepContext) error {
		var bank string
		if _, err := ctx.WRO().Get("bank", &bank); err != nil {
			return err
		}
		r, ok := ctx.Resource(bank)
		if !ok {
			return errors.New("no bank " + bank)
		}
		if err := r.(*resource.Bank).Transfer(ctx.Tx(), "pool", "sink", 1); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "sched.untransfer", core.NewParams().Set("bank", bank))
		time.Sleep(3 * time.Millisecond) // stretch the transaction window
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var chans []<-chan cluster.Result
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("crasher%02d", i)
		sub := &itinerary.Sub{ID: "job-" + id}
		for s := 0; s < steps; s++ {
			sub.Entries = append(sub.Entries, itinerary.Step{Method: "sched.slowTransfer", Loc: "n0"})
		}
		it, err := itinerary.New(sub)
		if err != nil {
			t.Fatal(err)
		}
		a, entered, err := agent.New(id, "", it)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.WRO.Set("bank", fmt.Sprintf("bank%d", i%nBanks)); err != nil {
			t.Fatal(err)
		}
		ch, err := cl.Launch(a, entered, "n0")
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}

	// Crash once a few steps have committed — with 4 workers and slowed
	// steps, several agents are claimed and mid-transaction right now.
	deadline := time.Now().Add(testTimeout)
	for {
		if s := cl.Counters().Snapshot(); s.StepTxns >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no steps committed before crash point")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.Crash("n0"); err != nil {
		t.Fatal(err)
	}
	mid := cl.Counters().Snapshot()
	if mid.StepTxns >= int64(agents*steps) {
		t.Fatalf("crash landed after the workload finished (%d steps); slow the steps down", mid.StepTxns)
	}
	if err := cl.Recover("n0"); err != nil {
		t.Fatal(err)
	}

	timeout := time.After(testTimeout)
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("agent %s failed after recovery: %s", res.AgentID, res.Reason)
			}
		case <-timeout:
			t.Fatal("agents did not complete after recovery")
		}
	}
	pool, sink := bankTotals(t, cl, nBanks)
	if want := int64(agents * steps); sink != want {
		t.Errorf("sink = %d, want %d (crash recovery duplicated or dropped steps)", sink, want)
	}
	if pool+sink != int64(nBanks*seed) {
		t.Errorf("money not conserved across crash: pool %d + sink %d", pool, sink)
	}
	if s := cl.Counters().Snapshot(); s.SchedInFlightPeak < 2 {
		t.Errorf("in-flight peak = %d: crash never raced concurrent claims", s.SchedInFlightPeak)
	}
}
