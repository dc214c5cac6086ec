package stable

import (
	"fmt"
	"testing"
)

// BenchmarkQueueClaimWithheld measures one Claim call over a queue whose
// visible entries are all withheld (every agent has its oldest entry in
// flight) — the scheduler's steady state under load. Before the entryIDs
// cache this re-read and re-decoded every withheld entry from the store
// per call (O(depth) gob decodes); with it the scan is pure map lookups.
func BenchmarkQueueClaimWithheld(b *testing.B) {
	for _, agents := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			s := NewMemStore(nil)
			q := NewQueue(s, "q/")
			payload := make([]byte, 1024)
			for i := 0; i < agents; i++ {
				id := fmt.Sprintf("agent%05d", i)
				// Oldest entry (will be claimed) + a younger withheld one.
				if err := q.Enqueue(id, payload); err != nil {
					b.Fatal(err)
				}
				if err := q.Enqueue(id, payload); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < agents; i++ {
				e, _, err := q.Claim(nil)
				if err != nil || e == nil {
					b.Fatalf("setup claim %d: %v %v", i, e, err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _, err := q.Claim(nil)
				if err != nil {
					b.Fatal(err)
				}
				if e != nil {
					b.Fatal("claim should find everything withheld")
				}
			}
		})
	}
}

// BenchmarkQueueClaimDepth measures the claim path when the claim scan's
// view is cold: each op invalidates the view, then claims the oldest
// entry and releases it. Claim re-lists and re-sorts the visible keys, so
// the cost grows with queue depth; an ordered claim index would make it
// flat.
func BenchmarkQueueClaimDepth(b *testing.B) {
	for _, depth := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			q := NewQueue(NewMemStore(nil), "q/")
			for i := 0; i < depth; i++ {
				if err := q.Enqueue(fmt.Sprintf("agent%05d", i), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.mu.Lock()
				q.viewValid = false
				q.mu.Unlock()
				e, _, err := q.Claim(nil)
				if err != nil || e == nil {
					b.Fatalf("claim: %v %v", e, err)
				}
				q.Release(e)
			}
		})
	}
}
