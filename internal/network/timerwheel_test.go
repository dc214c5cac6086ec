package network

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectFired records fired timer ids in order.
type collectFired struct {
	mu  sync.Mutex
	ids []string
}

func (c *collectFired) fire(id string) {
	c.mu.Lock()
	c.ids = append(c.ids, id)
	c.mu.Unlock()
}

func (c *collectFired) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.ids...)
}

func TestTimerWheelWallClock(t *testing.T) {
	var fired collectFired
	w := NewTimerWheel(nil, fired.fire, nil)
	defer w.Stop()

	w.Schedule("a", 5*time.Millisecond)
	w.Schedule("c", time.Millisecond)

	deadline := time.Now().Add(2 * time.Second)
	for {
		got := fired.snapshot()
		if len(got) >= 2 {
			if got[0] != "c" || got[1] != "a" {
				t.Fatalf("fired order %v, want [c a]", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timers did not fire: %v", fired.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if w.Len() != 0 {
		t.Errorf("Len() = %d after all fired, want 0", w.Len())
	}
}

func TestTimerWheelVirtualClockDeterministic(t *testing.T) {
	vc := NewVirtualClock(time.Time{})
	var fired collectFired
	w := NewTimerWheel(vc, fired.fire, nil)
	defer w.Stop()

	w.Schedule("late", 100*time.Millisecond)
	w.Schedule("mid", 50*time.Millisecond)
	w.Schedule("early", 10*time.Millisecond)

	// Nothing fires until the virtual clock moves.
	time.Sleep(20 * time.Millisecond)
	if got := fired.snapshot(); len(got) != 0 {
		t.Fatalf("timers fired without Advance: %v", got)
	}

	// Advancing past all three deadlines fires them in deadline order,
	// regardless of scheduling order. The wheel goroutine wakes via the
	// clock waiter; poll for the asynchronous callbacks.
	vc.Advance(200 * time.Millisecond)
	waitFor(t, func() bool { return len(fired.snapshot()) == 3 })
	if got := fired.snapshot(); got[0] != "early" || got[1] != "mid" || got[2] != "late" {
		t.Fatalf("fired order %v, want [early mid late]", got)
	}
}

func TestTimerWheelRearmAndRearmEarlier(t *testing.T) {
	vc := NewVirtualClock(time.Time{})
	var fired collectFired
	w := NewTimerWheel(vc, fired.fire, nil)
	defer w.Stop()

	// Re-arming replaces the deadline: "x" moves later, then an
	// unrelated earlier timer must still wake the sleeping wheel.
	w.Schedule("x", 10*time.Millisecond)
	w.Schedule("x", 100*time.Millisecond)
	vc.Advance(20 * time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	if got := fired.snapshot(); len(got) != 0 {
		t.Fatalf("re-armed timer fired at old deadline: %v", got)
	}
	w.Schedule("y", 5*time.Millisecond) // earlier than x's remaining 80ms
	vc.Advance(10 * time.Millisecond)
	waitFor(t, func() bool { return len(fired.snapshot()) == 1 })
	if got := fired.snapshot(); got[0] != "y" {
		t.Fatalf("fired %v, want [y]", got)
	}
	vc.Advance(100 * time.Millisecond)
	waitFor(t, func() bool { return len(fired.snapshot()) == 2 })
	if got := fired.snapshot(); got[1] != "x" {
		t.Fatalf("fired %v, want x last", got)
	}
}

func TestTimerWheelFireCallbackMaySchedule(t *testing.T) {
	vc := NewVirtualClock(time.Time{})
	var n atomic.Int64
	var w *TimerWheel
	w = NewTimerWheel(vc, func(id string) {
		if n.Add(1) < 3 {
			w.Schedule(id, 10*time.Millisecond) // periodic re-arm from the callback
		}
	}, nil)
	defer w.Stop()
	w.Schedule("tick", 10*time.Millisecond)
	for i := 0; i < 3; i++ {
		vc.Advance(10 * time.Millisecond)
		want := int64(i + 1)
		waitFor(t, func() bool { return n.Load() == want })
	}
}

func TestTimerWheelStopDropsTimers(t *testing.T) {
	var fired collectFired
	w := NewTimerWheel(nil, fired.fire, nil)
	w.Schedule("z", time.Hour)
	w.Stop()
	w.Schedule("after-stop", time.Nanosecond) // ignored
	time.Sleep(5 * time.Millisecond)
	if got := fired.snapshot(); len(got) != 0 {
		t.Fatalf("fired after Stop: %v", got)
	}
}

func TestClockTimerCancelReleasesWaiter(t *testing.T) {
	// VirtualClock: cancel drops the registered waiter so abandoned ack
	// waits do not accumulate (or inflate Pending) on frozen clocks.
	vc := NewVirtualClock(time.Time{})
	ch, cancel := ClockTimer(vc, time.Hour)
	if vc.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", vc.Pending())
	}
	cancel()
	cancel() // idempotent
	if vc.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel, want 0", vc.Pending())
	}
	vc.Advance(2 * time.Hour)
	select {
	case <-ch:
		t.Fatal("canceled virtual timer fired")
	default:
	}

	// Wall clock: the channel fires when not canceled.
	wch, wcancel := ClockTimer(WallClock(), time.Millisecond)
	defer wcancel()
	select {
	case <-wch:
	case <-time.After(2 * time.Second):
		t.Fatal("wall ClockTimer never fired")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
