package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// Span kinds. Zero marks a reserved slot that was never filled (the call
// it would have timed failed).
const (
	spanAgent = iota + 1
	spanLaunch
	spanStep
	spanDecide
	spanUndo
	spanNote
	spanDeposit
	spanWithdraw
	spanStoreGet
	spanStoreKeys
	spanStoreApply
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanAgent:      "agent",
	spanLaunch:     "cluster.Launch",
	spanStep:       "handler.step",
	spanDecide:     "handler.decide",
	spanUndo:       "comp.undo",
	spanNote:       "comp.note",
	spanDeposit:    "Bank.Deposit",
	spanWithdraw:   "Bank.Withdraw",
	spanStoreGet:   "store.Get",
	spanStoreKeys:  "store.Keys",
	spanStoreApply: "store.Apply",
}

// span is one timed call made by the benchmark's own code. Times are
// nanoseconds since the recorder's epoch.
type span struct {
	start, end int64
	agent      int32 // agent spec index; -1 for store calls
	parent     int32 // id of the enclosing span; -1 for roots
	seq        int16 // agent step sequence number of a handler; -1 otherwise
	pass       int8  // 0 before the agent's rollback, 1 after
	kind       uint8
	node       uint8
}

// maxSpans bounds the in-memory span buffer of one traced phase; spans
// beyond it are counted as dropped.
const maxSpans = 1 << 20

// recorder keeps the traced phase's spans in memory and the timed store
// counters. The benchmark has exactly one.
type recorder struct {
	epoch   time.Time
	tracing atomic.Bool
	// writers counts goroutines inside put; stop waits for it to drain,
	// so no span or count is written once the phase is analysed.
	writers atomic.Int64
	spans   []span
	n       atomic.Int64
	store   [numRoles][numStoreOps]storeStats
	// agentSpans maps an agent spec index to its agent span id, written by
	// the generator before the agent is launched.
	agentSpans []int32
}

var rec recorder

// token is an open span: its reserved slot and start time.
type token struct {
	id    int32
	start time.Time
}

// alloc sizes the recorder for agents [0, agents). The traced run
// allocates it before its untraced half, so both halves run with the same
// heap.
func (r *recorder) alloc(agents int) {
	r.spans = make([]span, maxSpans)
	r.agentSpans = make([]int32, agents)
	for i := range r.agentSpans {
		r.agentSpans[i] = -1
	}
}

// start turns tracing on. A run traces one phase.
func (r *recorder) start() {
	r.epoch = time.Now()
	r.tracing.Store(true)
}

func (r *recorder) stop() {
	r.tracing.Store(false)
	for r.writers.Load() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// put runs write, which stores into the recorder, unless tracing has
// stopped.
func (r *recorder) put(write func()) {
	r.writers.Add(1)
	if r.tracing.Load() {
		write()
	}
	r.writers.Add(-1)
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) reserve() int32 {
	id := r.n.Add(1) - 1
	if id >= int64(len(r.spans)) {
		return -1
	}
	return int32(id)
}

// begin opens a span if tracing; the returned token is inert otherwise.
func (r *recorder) begin() token {
	if !r.tracing.Load() {
		return token{id: -1}
	}
	return token{id: r.reserve(), start: time.Now()}
}

// end fills the span opened by t.
func (r *recorder) end(t token, s span) {
	if t.id < 0 {
		return
	}
	s.start, s.end = r.since(t.start), r.since(time.Now())
	r.put(func() { r.spans[t.id] = s })
}

func (r *recorder) agentSpan(idx int32) int32 {
	if idx < 0 || int(idx) >= len(r.agentSpans) || !r.tracing.Load() {
		return -1
	}
	return r.agentSpans[idx]
}

// recorded returns the filled spans; call only after the phase drained.
func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

func (r *recorder) dropped() int64 {
	if n := r.n.Load() - int64(len(r.spans)); n > 0 {
		return n
	}
	return 0
}

// handlerKey identifies one step execution of an agent across retries.
type handlerKey struct {
	pass int8
	seq  int16
}

// agentTimes is an agent's reconstructed timeline: its span and the last
// attempt of each handler, in execution order.
type agentTimes struct {
	agent    span
	handlers []span
}

// spanAnalysis holds what the traced phase's spans say about each layer.
type spanAnalysis struct {
	mean    [numSpanKinds]float64 // mean duration, µs
	count   [numSpanKinds]int
	self    [numSpanKinds]float64 // mean self time, µs
	applyUS []float64             // every primary Apply, µs
	// Per complete agent: its hand-offs, collect gap and agent span (ms).
	handoffMS []float64
	collectMS []float64
	agentMS   []float64
	// rollbackMS is the gap from the decide handler's rollback request to
	// the first re-executed step handler.
	rollbackMS []float64
}

// analyze reconstructs per-agent timelines and per-layer self times.
func analyze(spans []span) spanAnalysis {
	var a spanAnalysis
	var total [numSpanKinds]int64
	children := make(map[int32][]span)
	timelines := make(map[int32]*agentTimes)
	last := make(map[int32]map[handlerKey]span)
	for id, s := range spans {
		if s.kind == 0 {
			continue
		}
		a.count[s.kind]++
		total[s.kind] += s.end - s.start
		if s.kind == spanStoreApply {
			a.applyUS = append(a.applyUS, float64(s.end-s.start)/1e3)
		}
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
		switch s.kind {
		case spanAgent:
			if s.end > 0 {
				timelines[int32(id)] = &agentTimes{agent: s}
			}
		case spanStep, spanDecide:
			if s.parent < 0 {
				continue
			}
			m := last[s.parent]
			if m == nil {
				m = make(map[handlerKey]span)
				last[s.parent] = m
			}
			k := handlerKey{s.pass, s.seq}
			if prev, ok := m[k]; !ok || s.start > prev.start {
				m[k] = s
			}
		}
	}
	for k := range total {
		if a.count[k] > 0 {
			a.mean[k] = float64(total[k]) / float64(a.count[k]) / 1e3
		}
	}
	// Self time: a span's duration minus the union of its children.
	var selfTotal [numSpanKinds]int64
	for id, s := range spans {
		if s.kind == 0 {
			continue
		}
		selfTotal[s.kind] += s.end - s.start - covered(s, children[int32(id)])
	}
	for k := range selfTotal {
		if a.count[k] > 0 {
			a.self[k] = float64(selfTotal[k]) / float64(a.count[k]) / 1e3
		}
	}
	for id, t := range timelines {
		for _, h := range last[id] {
			t.handlers = append(t.handlers, h)
		}
		sort.Slice(t.handlers, func(i, j int) bool { return t.handlers[i].start < t.handlers[j].start })
		if len(t.handlers) == 0 {
			continue
		}
		prev := t.agent.start
		for _, h := range t.handlers {
			a.handoffMS = append(a.handoffMS, float64(h.start-prev)/1e6)
			prev = h.end
		}
		a.collectMS = append(a.collectMS, float64(t.agent.end-prev)/1e6)
		a.agentMS = append(a.agentMS, float64(t.agent.end-t.agent.start)/1e6)
		for i, h := range t.handlers {
			if h.kind == spanDecide && h.pass == 0 && i+1 < len(t.handlers) {
				a.rollbackMS = append(a.rollbackMS, float64(t.handlers[i+1].start-h.end)/1e6)
			}
		}
	}
	return a
}

// covered returns how much of s's interval its children cover.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		ks, ke := max(k.start, s.start), min(k.end, s.end)
		if ke <= ks {
			continue
		}
		if ks > hi {
			sum += hi - lo
			lo, hi = ks, ke
		} else if ke > hi {
			hi = ke
		}
	}
	return sum + hi - lo
}

// writeSpans writes the spans once, at exit, as CSV.
func writeSpans(path string, spans []span, specs []agentSpec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,agent,node,pass,seq,start_ns,end_ns")
	for id, s := range spans {
		if s.kind == 0 {
			continue
		}
		agentID, nodeName := "", ""
		if s.agent >= 0 && int(s.agent) < len(specs) {
			agentID = specs[s.agent].id
		}
		if int(s.node) < numNodes {
			nodeName = nodeNames[s.node]
		}
		fmt.Fprintf(w, "%d,%d,%s,%s,%s,%d,%d,%d,%d\n", id, s.parent, spanNames[s.kind],
			agentID, nodeName, s.pass, s.seq, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-span-name table: count, mean and self.
func printSelfTimes(w io.Writer, a spanAnalysis) {
	fmt.Fprintf(w, "%-16s %9s %12s %12s\n", "span", "count", "mean_us", "self_us")
	for k := 1; k < numSpanKinds; k++ {
		if a.count[k] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s %9d %12.2f %12.2f\n", spanNames[k], a.count[k], a.mean[k], a.self[k])
	}
}

// mallocsPer returns heap allocations per call of fn over rounds calls.
func mallocsPer(rounds int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rounds)
}
