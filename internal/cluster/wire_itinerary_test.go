package cluster_test

import (
	"errors"
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

// wireCluster builds a three-node cluster whose rollback itinerary sends
// every protocol message kind across the wire: agent transfers, both 2PC
// rounds and shipped RCE lists.
func wireCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Options{
		Optimized:   true, // RCE lists cross the wire too
		RetryDelay:  2 * time.Millisecond,
		AckTimeout:  time.Second,
		MaxAttempts: 8,
	})
	for _, name := range []string{"n1", "n2", "n3"} {
		if err := cl.AddNode(name, bankFactory("bank", true)); err != nil {
			t.Fatal(err)
		}
	}
	reg := cl.Registry()
	mustRegStep(t, reg, "mx.dep", func(ctx agent.StepContext) error {
		r, ok := ctx.Resource("bank")
		if !ok {
			return errors.New("mx.dep: no bank")
		}
		if err := r.(*resource.Bank).Deposit(ctx.Tx(), "acct", 10); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "mx.undep", core.NewParams())
		ctx.LogComp(core.OpAgent, "mx.mark", core.NewParams())
		return nil
	})
	mustRegComp(t, reg, "mx.undep", func(ctx agent.CompContext) error {
		r, err := ctx.Resource("bank")
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Withdraw(ctx.Tx(), "acct", 10)
	})
	// Rollback trigger: fires once, then succeeds on the retry pass
	// (mx.dep's agent compensation leaves a WRO marker).
	mustRegStep(t, reg, "mx.trigger", func(ctx agent.StepContext) error {
		if done, err := ctx.WRO().Has("mx.marked"); err != nil {
			return err
		} else if done {
			return ctx.SRO().Set("mx.ok", true)
		}
		return ctx.RollbackCurrentSub()
	})
	mustRegComp(t, reg, "mx.mark", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("mx.marked", true)
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, name := range []string{"n1", "n2", "n3"} {
		name := name
		if err := cl.WithTx(name, func(tx *txn.Tx, n *node.Node) error {
			return mustBank(t, n, "bank").OpenAccount(tx, "acct", 100)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// TestRollbackItineraryOverWire runs a full itinerary — deposits on all
// three nodes, then a partial rollback triggered on n2 — so every agent
// transfer, 2PC round and shipped RCE list crosses a node boundary in
// the binary wire format, and the per-kind wire accounting sees them.
func TestRollbackItineraryOverWire(t *testing.T) {
	cl := wireCluster(t)
	it, err := itinerary.New(&itinerary.Sub{ID: "job", Entries: []itinerary.Entry{
		itinerary.Step{Method: "mx.dep", Loc: "n1"},
		itinerary.Step{Method: "mx.dep", Loc: "n2"},
		itinerary.Step{Method: "mx.dep", Loc: "n3"},
		itinerary.Step{Method: "mx.trigger", Loc: "n2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("wire-itinerary", "", it)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "n1", 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed: %s", res.Reason)
	}
	var ok bool
	if err := res.Agent.SRO.MustGet("mx.ok", &ok); err != nil || !ok {
		t.Fatalf("trigger outcome missing: %v", err)
	}
	// The rollback compensated the first pass's deposits; the retry pass
	// deposited again: every balance ends at 100 + 10.
	for _, name := range []string{"n1", "n2", "n3"} {
		name := name
		if err := cl.WithTx(name, func(tx *txn.Tx, n *node.Node) error {
			bal, err := mustBank(t, n, "bank").Balance(tx, "acct")
			if err != nil {
				return err
			}
			if bal != 110 {
				t.Errorf("%s balance = %d, want 110", name, bal)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Both 2PC rounds and agent transfers crossed the wire, and every
	// send was attributed to its kind.
	s := cl.Counters().Snapshot()
	if s.Messages == 0 {
		t.Error("no messages recorded on the wire")
	}
	for _, kind := range []string{"q.prepare", "q.commit.ack"} {
		if s.WireBytesByKind[kind] == 0 {
			t.Errorf("no wire bytes attributed to %q", kind)
		}
	}
}
