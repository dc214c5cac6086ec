package stable_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/stable"
	"repro/internal/stable/wal"
)

// storeImpls runs a subtest against the volatile engine and the durable
// one.
func storeImpls(t *testing.T, fn func(t *testing.T, s stable.Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, stable.NewMemStore(nil)) })
	t.Run("wal", func(t *testing.T) {
		s, err := wal.Open(t.TempDir(), wal.Options{NoBackground: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		fn(t, s)
	})
}

// Store interface conformance (basics, value isolation, batch atomicity,
// queue linearization) lives in the shared suite: see storetest and
// conformance_test.go, which run it against every engine.

func TestQueueFIFO(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		for _, id := range []string{"first", "second", "third"} {
			if err := q.Enqueue(id, []byte(id+"-data")); err != nil {
				t.Fatal(err)
			}
		}
		if n, _ := q.Len(); n != 3 {
			t.Fatalf("Len = %d, want 3", n)
		}
		for _, want := range []string{"first", "second", "third"} {
			e, err := q.Peek()
			if err != nil || e == nil {
				t.Fatalf("peek: %v %v", e, err)
			}
			if e.ID != want || string(e.Data) != want+"-data" {
				t.Errorf("peeked %q, want %q", e.ID, want)
			}
			if err := s.Apply(q.RemoveOp(e)); err != nil {
				t.Fatal(err)
			}
		}
		e, err := q.Peek()
		if err != nil || e != nil {
			t.Errorf("empty queue peek = %v, %v", e, err)
		}
	})
}

func TestQueueStagedLifecycle(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		if err := q.Prepare("tx1", "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		// Invisible while staged.
		if e, _ := q.Peek(); e != nil {
			t.Error("staged entry visible")
		}
		staged, err := q.StagedTxns()
		if err != nil || !reflect.DeepEqual(staged, []string{"tx1"}) {
			t.Errorf("staged = %v, %v", staged, err)
		}
		// Prepare is idempotent.
		if err := q.Prepare("tx1", "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		if err := q.CommitStaged("tx1"); err != nil {
			t.Fatal(err)
		}
		e, err := q.Peek()
		if err != nil || e == nil || e.ID != "agent1" {
			t.Fatalf("after commit: %v %v", e, err)
		}
		// Commit is idempotent.
		if err := q.CommitStaged("tx1"); err != nil {
			t.Fatal(err)
		}
		if n, _ := q.Len(); n != 1 {
			t.Errorf("duplicate commit duplicated entry: len %d", n)
		}
	})
}

func TestQueueAbortStaged(t *testing.T) {
	s := stable.NewMemStore(nil)
	q := stable.NewQueue(s, "q/")
	if err := q.Prepare("tx1", "a", []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := q.AbortStaged("tx1"); err != nil {
		t.Fatal(err)
	}
	if staged, _ := q.StagedTxns(); len(staged) != 0 {
		t.Errorf("staged after abort = %v", staged)
	}
	// Commit after abort is a no-op (no resurrection).
	if err := q.CommitStaged("tx1"); err != nil {
		t.Fatal(err)
	}
	if e, _ := q.Peek(); e != nil {
		t.Error("aborted entry resurrected by commit")
	}
}

func TestQueueStagedKeepsReservedPosition(t *testing.T) {
	s := stable.NewMemStore(nil)
	q := stable.NewQueue(s, "q/")
	if err := q.Prepare("tx1", "early", nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("late", nil); err != nil {
		t.Fatal(err)
	}
	if err := q.CommitStaged("tx1"); err != nil {
		t.Fatal(err)
	}
	e, err := q.Peek()
	if err != nil || e == nil || e.ID != "early" {
		t.Errorf("head = %v, want early (reserved position)", e)
	}
}

func TestQueueEnqueueOps(t *testing.T) {
	s := stable.NewMemStore(nil)
	q := stable.NewQueue(s, "q/")
	ops, err := q.EnqueueOps("a1", []byte("d"))
	if err != nil {
		t.Fatal(err)
	}
	// Not visible until the ops are applied.
	if e, _ := q.Peek(); e != nil {
		t.Error("entry visible before ops applied")
	}
	if err := s.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	e, err := q.Peek()
	if err != nil || e == nil || e.ID != "a1" {
		t.Errorf("after apply: %v %v", e, err)
	}
}

func TestQueueNotify(t *testing.T) {
	s := stable.NewMemStore(nil)
	q := stable.NewQueue(s, "q/")
	// Broadcast contract: grab the channel first; a later enqueue closes
	// it, waking every holder.
	ch := q.Notify()
	if err := q.Enqueue("a", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Error("no notification after enqueue")
	}
	// A channel grabbed after the signal only reports future arrivals.
	select {
	case <-q.Notify():
		t.Error("stale notification on fresh channel")
	default:
	}
}

func TestQueueSeparatePrefixes(t *testing.T) {
	s := stable.NewMemStore(nil)
	q1 := stable.NewQueue(s, "q1/")
	q2 := stable.NewQueue(s, "q2/")
	if err := q1.Enqueue("a", nil); err != nil {
		t.Fatal(err)
	}
	if e, _ := q2.Peek(); e != nil {
		t.Error("queues share entries across prefixes")
	}
}

// TestQueueSeqCacheSurvivesRestart: the cached tail counter must pick up
// where the persisted counter left off when a fresh Queue (post-crash)
// opens the same store.
func TestQueueSeqCacheSurvivesRestart(t *testing.T) {
	s := stable.NewMemStore(nil)
	q1 := stable.NewQueue(s, "q/")
	for i := 0; i < 3; i++ {
		if err := q1.Enqueue(fmt.Sprintf("a%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": a fresh queue over the same store.
	q2 := stable.NewQueue(s, "q/")
	if err := q2.Enqueue("a3", nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a0", "a1", "a2", "a3"} {
		e, err := q2.Peek()
		if err != nil || e == nil || e.ID != want {
			t.Fatalf("head = %v %v, want %s", e, err, want)
		}
		if err := s.Apply(q2.RemoveOp(e)); err != nil {
			t.Fatal(err)
		}
	}
}
