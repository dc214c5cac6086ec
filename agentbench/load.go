package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// load shapes one phase of a workload.
type load struct {
	rate    float64       // open loop: mean Poisson arrivals per second
	burst   int           // burst: agents launched at once, repeated
	clients int           // closed loop: clients each with one agent in flight
	dur     time.Duration // how long the phase keeps offering load
	// window splits an open or closed loop into stretches measured on
	// their own (a burst is its own window); a run reports the median
	// over windows, so one disturbed stretch does not move it.
	window time.Duration
}

// window is one stretch of a phase: agents by due time or launch, or
// one burst.
type window struct {
	latMS []float64 // per completed agent
	steps float64   // committed step executions of its completed agents
	secs  float64   // a burst's duration; zero for loop windows
}

// phaseResult is what one phase measured from outside the program.
type phaseResult struct {
	launched, succeeded, failed, unresolved int

	latMS   []float64 // per completed agent, from its due time or launch
	lateMS  []float64 // open loop: how late the generator launched each agent
	windows []window
	elapsed time.Duration
	cpu     time.Duration
	allocKB float64
	before  metrics.Snapshot
	after   metrics.Snapshot
}

// stepsPerAgent is the number of committed step executions an agent
// that completes makes: the deposit steps, and for a rollback workload
// the deposit steps again plus the accepting decide.
func (b *bench) stepsPerAgent() int {
	if b.w.rollback {
		return 2*numSteps + 1
	}
	return numSteps
}

// steps counts the committed step executions of r's completed agents.
func (b *bench) steps(r phaseResult) float64 { return float64(r.succeeded * b.stepsPerAgent()) }

// runner owns the run's cluster and generated agents, and hands the
// agents out in order.
type runner struct {
	w        workloadSpec
	dir      string
	counters *metrics.Counters // shared by every cluster the run builds
	b        *bench
	builds   int
	specs    []agentSpec
	next     int
	rng      *rand.Rand // arrival times
	// drain bounds how long a phase waits for its agents after it stops
	// offering load; agents still unresolved then count as failed.
	drain time.Duration
	errs  []string // output check failures
	mu    sync.Mutex
}

// retire checks the current cluster's output and closes it.
func (rn *runner) retire() {
	if rn.b == nil {
		return
	}
	if err := rn.b.checkSink(); err != nil {
		rn.errs = append(rn.errs, err.Error())
	}
	rn.b.close()
	rn.b = nil
}

// build replaces the retired cluster with a newly built one.
func (rn *runner) build() error {
	b, err := buildBench(rn.w, filepath.Join(rn.dir, fmt.Sprintf("cluster-%d", rn.builds)), rn.counters)
	if err != nil {
		return err
	}
	rn.builds++
	rn.b = b
	return nil
}

// genSpecs derives n agents from the seed: IDs, start nodes and banks.
func genSpecs(seed uint64, n int) []agentSpec {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	specs := make([]agentSpec, n)
	for i := range specs {
		specs[i] = agentSpec{
			id:    fmt.Sprintf("%d-%012x", i, r.Uint64()>>16),
			start: r.IntN(numNodes),
			bank:  r.IntN(numBanks),
		}
	}
	return specs
}

// take reserves the next agent spec index, or -1 when none remain.
func (rn *runner) take() int {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if rn.next >= len(rn.specs) {
		return -1
	}
	rn.next++
	return rn.next - 1
}

// pending is one launched agent the runner waits for.
type pending struct {
	origin time.Time // due time (open loop) or launch call start
	ch     <-chan cluster.Result
	span   int32
	win    int // window index; -1 outside every window
}

// launch builds and launches spec i. The agent and launch spans are
// recorded while tracing.
func (rn *runner) launch(i int, origin time.Time, win int) (pending, error) {
	a, entered, err := rn.b.newAgent(rn.specs[i])
	if err != nil {
		return pending{}, err
	}
	p := pending{origin: origin, span: -1, win: win}
	if rec.tracing.Load() {
		p.span = rec.reserve()
		rec.agentSpans[i] = p.span
	}
	lt := rec.begin()
	start := time.Now()
	ch, err := rn.b.cl.Launch(a, entered, nodeNames[rn.specs[i].start])
	if err != nil {
		return pending{}, err
	}
	rec.end(lt, span{kind: spanLaunch, agent: int32(i), parent: p.span, seq: -1})
	if p.span >= 0 {
		rec.put(func() {
			rec.spans[p.span] = span{kind: spanAgent, agent: int32(i), parent: -1, seq: -1, start: rec.since(start)}
		})
	}
	if origin.IsZero() {
		p.origin = start
	}
	p.ch = ch
	return p, nil
}

// outcome of waiting for one agent.
type outcome struct {
	done   time.Time
	failed bool
	ok     bool // resolved before the deadline
	err    error
}

// await waits for p's result or the stop signal.
func (rn *runner) await(p pending, stop <-chan struct{}) outcome {
	select {
	case r := <-p.ch:
		now := time.Now()
		if p.span >= 0 {
			rec.put(func() { rec.spans[p.span].end = rec.since(now) })
		}
		return outcome{done: now, failed: r.Failed, ok: true, err: rn.b.checkResult(r)}
	case <-stop:
		return outcome{}
	}
}

// phase offers one load shape, drains it and measures it.
func (rn *runner) phase(l load, traced bool) (phaseResult, error) {
	var res phaseResult
	runtime.GC()
	if traced {
		rec.start()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	res.before = rn.counters.Snapshot()
	start := time.Now()

	var mu sync.Mutex
	var last time.Time
	record := func(p pending, o outcome) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case !o.ok:
			res.unresolved++
			rn.b.lost++
		case o.failed:
			res.failed++
			rn.b.lost++
		default:
			res.succeeded++
			rn.b.completed++
			ms := float64(o.done.Sub(p.origin)) / 1e6
			res.latMS = append(res.latMS, ms)
			if p.win >= 0 {
				for len(res.windows) <= p.win {
					res.windows = append(res.windows, window{})
				}
				w := &res.windows[p.win]
				w.latMS = append(w.latMS, ms)
				w.steps += float64(rn.b.stepsPerAgent())
			}
		}
		if o.err != nil {
			rn.errs = append(rn.errs, o.err.Error())
		}
		if o.done.After(last) {
			last = o.done
		}
	}
	stop := make(chan struct{})
	deadline := start.Add(l.dur + rn.drain)
	var wg sync.WaitGroup
	var launchErr error
	wait := func(p pending) {
		defer wg.Done()
		record(p, rn.await(p, stop))
	}
	// Whole windows of an open or closed loop; agents after the last one
	// count only in the phase totals.
	windows := 1
	if l.window > 0 && l.window <= l.dur {
		windows = int(l.dur / l.window)
	} else {
		l.window = l.dur
	}
	winOf := func(origin time.Time) int {
		if k := int(origin.Sub(start) / l.window); k < windows {
			return k
		}
		return -1
	}
	switch {
	case l.clients > 0:
		for c := 0; c < l.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < l.dur {
					i := rn.take()
					if i < 0 {
						return
					}
					p, err := rn.launch(i, time.Time{}, winOf(time.Now()))
					if err != nil {
						mu.Lock()
						launchErr = err
						mu.Unlock()
						return
					}
					o := rn.await(p, stop)
					record(p, o)
					if !o.ok {
						return
					}
				}
			}()
		}
	case l.burst > 0:
		// Every burst hits an idle cluster: a fresh one once the current
		// one has carried agents. Only the bursts themselves are timed.
		var busy time.Duration
		for burst := 0; launchErr == nil; burst++ {
			if rn.b.completed+rn.b.lost > 0 {
				rn.retire()
				if err := rn.build(); err != nil {
					return res, err
				}
			}
			bstart := time.Now()
			n := 0
			for ; n < l.burst; n++ {
				i := rn.take()
				if i < 0 {
					break
				}
				p, err := rn.launch(i, time.Time{}, burst)
				if err != nil {
					launchErr = err
					break
				}
				wg.Add(1)
				go wait(p)
			}
			resolved := waitAll(&wg, stop, deadline)
			busy += last.Sub(bstart)
			if burst < len(res.windows) {
				res.windows[burst].secs = last.Sub(bstart).Seconds()
			}
			if n == 0 || !resolved || time.Since(start) >= l.dur {
				break
			}
		}
		start = time.Now().Add(-busy)
	default:
		due := start
		for {
			due = due.Add(time.Duration(rn.rng.ExpFloat64() / l.rate * float64(time.Second)))
			if due.Sub(start) >= l.dur {
				break
			}
			i := rn.take()
			if i < 0 {
				break
			}
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			res.lateMS = append(res.lateMS, float64(time.Since(due))/1e6)
			p, err := rn.launch(i, due, winOf(due))
			if err != nil {
				launchErr = err
				break
			}
			wg.Add(1)
			go wait(p)
		}
	}
	waitAll(&wg, stop, deadline)
	res.launched = res.succeeded + res.failed + res.unresolved
	if launchErr != nil {
		return res, fmt.Errorf("launch: %w", launchErr)
	}
	res.elapsed = last.Sub(start)
	res.cpu = cpuTime() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	res.after = rn.counters.Snapshot()
	fmt.Fprintf(os.Stderr, "phase: %d agents in %v, %d msgs, %d agent.done msgs, cpu %v\n",
		res.launched, res.elapsed.Round(time.Millisecond), res.after.Messages-res.before.Messages,
		res.after.WireMsgsByKind["agent.done"]-res.before.WireMsgsByKind["agent.done"], res.cpu.Round(time.Millisecond))
	if traced {
		rec.stop()
	}
	return res, nil
}

// waitAll waits for wg until deadline; past it, the waiters are stopped
// and their agents count as unresolved. It reports whether all resolved.
func waitAll(wg *sync.WaitGroup, stop chan struct{}, deadline time.Time) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		select {
		case <-stop:
		default:
			close(stop)
		}
		<-done
		return false
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
