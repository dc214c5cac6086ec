// Command agentbench is the agent platform's end-to-end benchmark. It
// builds a 4-node simulated cluster through the public cluster API,
// registers its own step and compensation handlers, drives one workload
// and measures every layer from outside: cluster.Launch, the Bank calls
// its handlers make, a timed storage engine registered through
// stable.RegisterEngine, the container codec and counter deltas.
//
//	bash agentbench/run.sh --workload fwd-open --seed 1 --seconds 30 --trace 0   # from the repository root
//
// Workloads (see ../BENCHMARK.json):
//
//	fwd-open       open loop, Poisson arrivals at 300 agents/s, 4-step agents, mem
//	fwd-burst      bursts of 2000 4-step agents launched at once, mem
//	rollback-repl  2 closed-loop clients, wal + 1 quorum follower, each agent
//	               rolls its 4 steps back once and re-executes them
//	collapse       the sustained-overload repro (8000 agents, 1024 in flight);
//	               not gated, see baseline.json
//
// With --trace 0 the last line of stdout is a JSON object carrying the
// end-to-end metrics; with --trace 1 the run is split into an untraced
// and a traced half, and the JSON carries the per-layer metrics taken
// from the traced half's spans and counters. Spans are written once, at
// exit, under --spans. The exit status is non-zero when an output check
// fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/stable"
)

// workload is one named benchmark input.
type workload struct {
	spec   workloadSpec
	warm   load // untimed, lets lazy set-up and caches settle
	main   load // dur is filled from --seconds
	agents func(seconds int) int
	drain  time.Duration
}

var workloads = map[string]workload{
	"fwd-open": {
		spec:   workloadSpec{engine: engineMem},
		warm:   load{rate: 300, dur: time.Second},
		main:   load{rate: 300, window: 5 * time.Second},
		agents: func(s int) int { return 600 * (s + 2) },
		drain:  30 * time.Second,
	},
	"fwd-burst": {
		spec:   workloadSpec{engine: engineMem},
		warm:   load{burst: 200},
		main:   load{burst: 2000},
		agents: func(s int) int { return 200 + 2000*(s+2) },
		drain:  30 * time.Second,
	},
	"rollback-repl": {
		spec: workloadSpec{
			engine:   engineWAL,
			repl:     stable.ReplSpec{Followers: 1, Acks: stable.AcksQuorum},
			rollback: true,
		},
		warm:   load{clients: 2, dur: time.Second},
		main:   load{clients: 2, window: 10 * time.Second},
		agents: func(s int) int { return 1000 * (s + 2) },
		drain:  30 * time.Second,
	},
	"collapse": {
		spec:   workloadSpec{engine: engineMem},
		main:   load{clients: 1024, window: time.Minute},
		agents: func(int) int { return 8000 },
	},
}

// setups is how many times a run builds its cluster; setup_s is the
// median, and the last cluster carries the load.
const setups = 15

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "agentbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errCheck marks a run whose outputs failed a check; the report is
// still printed.
var errCheck = errors.New("output check failed")

func run(args []string) error {
	fs := flag.NewFlagSet("agentbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed for start nodes, agent IDs, banks and arrival times")
	seconds := fs.Int("seconds", 10, "how long the measured load runs")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	dataRoot := fs.String("data", filepath.Join(".bench_build", "data"), "directory for durable engines' files")
	retryDelay := fs.Duration("retry-delay", 0, "override the nodes' retry delay (0: platform default); repro commands use 2ms")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	traced := *traceFlag == 1
	w.spec.retryDelay = *retryDelay
	if err := os.MkdirAll(*dataRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*dataRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	d := &runner{
		w:        w.spec,
		dir:      dir,
		counters: &metrics.Counters{},
		rng:      rand.New(rand.NewPCG(*seed, 0xa771)),
		drain:    w.drain,
	}
	var setupS []float64
	// Set-up runs on one P: its few milliseconds of work would otherwise
	// be swamped by how long the VM takes to wake an idle CPU for each
	// goroutine hand-off.
	procs := runtime.GOMAXPROCS(1)
	for k := 0; k < setups; k++ {
		d.retire()
		// Hand the previous cluster's memory back to the OS, so every
		// set-up faults its memory in like a fresh process does.
		debug.FreeOSMemory()
		start := time.Now()
		if err := d.build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	runtime.GOMAXPROCS(procs)
	defer func() { d.b.close() }()
	d.specs = genSpecs(*seed, w.agents(*seconds))
	if traced {
		rec.alloc(len(d.specs))
	}

	if w.warm.dur > 0 || w.warm.burst > 0 {
		if _, err := d.phase(w.warm, false); err != nil {
			return err
		}
	}
	ml := w.main
	var rep report
	var measured []phaseResult
	if !traced {
		ml.dur = time.Duration(*seconds) * time.Second
		r, err := d.phase(ml, false)
		if err != nil {
			return err
		}
		measured = append(measured, r)
		rep.Metrics = endToEnd(r, d.b, setupS)
	} else {
		ml.dur = time.Duration(*seconds) * time.Second / 2
		plain, err := d.phase(ml, false)
		if err != nil {
			return err
		}
		tr, err := d.phase(ml, true)
		if err != nil {
			return err
		}
		measured = append(measured, plain, tr)
		spans := rec.recorded()
		a := analyze(spans)
		rep.Metrics, err = perLayer(plain, tr, a, d)
		if err != nil {
			return err
		}
		printSelfTimes(os.Stderr, a)
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.csv", *name, *seed))
		if err := writeSpans(path, spans, d.specs); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans (%d dropped) to %s\n", len(spans), rec.dropped(), path)
	}
	for _, r := range measured {
		rep.Attempted += r.launched
		rep.Failed += r.failed + r.unresolved
	}

	errs := d.errs
	if err := d.b.checkSink(); err != nil {
		errs = append(errs, err.Error())
	}
	if rep.Attempted == 0 {
		errs = append(errs, "no agent was launched")
	}
	rep.Correct = len(errs) == 0
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "check: ... %d more\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "check:", e)
	}
	printTable(*name, rep, measured)
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return errCheck
	}
	return nil
}

// overWindows returns the median over r's windows of f.
func overWindows(r phaseResult, f func(window) float64) float64 {
	var xs []float64
	for _, w := range r.windows {
		if len(w.latMS) > 0 {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

// endToEnd computes the metrics a user of the platform sees. Latency is
// the median over the phase's windows, throughput the median over bursts
// or, for a loop, the whole phase's. The p99 is a per-layer figure: on
// fwd-open it follows the VM's CPU steal and flips by a quarter between
// runs, too wide for a bound.
func endToEnd(r phaseResult, b *bench, setupS []float64) map[string]metric {
	steps := b.steps(r)
	rate := steps / r.elapsed.Seconds()
	if len(r.windows) > 0 && r.windows[0].secs > 0 {
		rate = overWindows(r, func(w window) float64 { return w.steps / w.secs })
	}
	return map[string]metric{
		"setup_s":           {median(setupS), "s"},
		"agent_ms_p50":      {overWindows(r, func(w window) float64 { return quantile(w.latMS, 0.50) }), "ms"},
		"steps_per_s":       {rate, "1/s"},
		"cpu_us_per_step":   {float64(r.cpu.Microseconds()) / steps, "us"},
		"alloc_kb_per_step": {r.allocKB / steps, "KB"},
		"rss_peak_mb":       {peakRSSMB(), "MB"},
	}
}

// perLayer computes the per-layer metrics of the traced phase tr; plain
// is the untraced phase run just before it on the same cluster.
func perLayer(plain, tr phaseResult, a spanAnalysis, d *runner) (map[string]metric, error) {
	b := d.b
	steps := b.steps(tr)
	agents := float64(tr.succeeded)
	before, after := tr.before, tr.after
	wall := tr.elapsed.Seconds()
	per := func(n int64, den float64) float64 {
		if den == 0 {
			return 0
		}
		return float64(n) / den
	}
	st := func(role, op int) (calls, ops, bytes, nanos int64) {
		s := &rec.store[role][op]
		return s.calls.Load(), s.ops.Load(), s.bytes.Load(), s.nanos.Load()
	}
	keysCalls, _, _, keysNS := st(rolePrimary, opKeys)
	getCalls, _, _, getNS := st(rolePrimary, opGet)
	applyCalls, applyOps, applyBytes, applyNS := st(rolePrimary, opApply)
	replCalls, _, _, replNS := st(roleReplica, opApply)

	bytes, enc, dec, allocs, err := b.probeContainer(d.specs[0])
	if err != nil {
		return nil, fmt.Errorf("container probe: %w", err)
	}
	handoff50, handoff99 := quantile(a.handoffMS, 0.5), quantile(a.handoffMS, 0.99)
	// The outside-in spans must cover each agent's whole life: per agent,
	// its handlers × (mean hand-off + mean handler) + mean collect gap
	// should equal the mean agent span.
	var unattributed float64
	if n := len(a.agentMS); n > 0 {
		handlers := float64(len(a.handoffMS)) / float64(n)
		handlerMS := (a.mean[spanStep]*float64(a.count[spanStep]) + a.mean[spanDecide]*float64(a.count[spanDecide])) /
			float64(a.count[spanStep]+a.count[spanDecide]) / 1e3
		whole := mean(a.agentMS)
		unattributed = math.Abs(whole-handlers*(mean(a.handoffMS)+handlerMS)-mean(a.collectMS)) / whole
	}
	m := map[string]metric{
		"stable.keys_per_step":               {per(keysCalls, steps), "count"},
		"stable.keys_us_mean":                {per(keysNS, 1e3*float64(keysCalls)), "us"},
		"sched.claims_per_step":              {per(after.SchedClaims-before.SchedClaims, steps), "count"},
		"sched.claim_conflicts_per_step":     {per(after.SchedClaimConflicts-before.SchedClaimConflicts, steps), "count"},
		"sched.queue_depth_peak":             {float64(after.SchedQueueDepthPeak), "count"},
		"wire.container_bytes":               {float64(bytes), "B"},
		"wire.container_encode_us":           {enc, "us"},
		"wire.container_decode_us":           {dec, "us"},
		"wire.container_allocs":              {allocs, "count"},
		"cluster.launch_us_mean":             {a.mean[spanLaunch], "us"},
		"agent.step_us_mean":                 {a.mean[spanStep], "us"},
		"node.handoff_ms_p50":                {handoff50, "ms"},
		"node.handoff_ms_p99":                {handoff99, "ms"},
		"cluster.collect_ms_p50":             {quantile(a.collectMS, 0.5), "ms"},
		"network.msgs_per_step":              {per(after.Messages-before.Messages, steps), "count"},
		"network.kb_per_step":                {per(after.BytesSent-before.BytesSent, 1024*steps), "KB"},
		"network.msgs_per_batch":             {per(after.NetBatchedMsgs-before.NetBatchedMsgs, float64(after.NetBatches-before.NetBatches)), "count"},
		"network.done_msgs_per_agent":        {per(after.WireMsgsByKind["agent.done"]-before.WireMsgsByKind["agent.done"], agents), "count"},
		"protocol.timers_fired_per_step":     {per(after.TimersFired-before.TimersFired, steps), "count"},
		"protocol.transitions_per_step":      {per(after.ProtocolTransitions-before.ProtocolTransitions, steps), "count"},
		"protocol.decision_commits_per_step": {per(after.DecisionBatches-before.DecisionBatches, steps), "count"},
		"protocol.ack_piggybacked_per_step":  {per(after.AckPiggybacked-before.AckPiggybacked, steps), "count"},
		"stable.apply_per_step":              {per(applyCalls, steps), "count"},
		"stable.apply_us_mean":               {per(applyNS, 1e3*float64(applyCalls)), "us"},
		"stable.apply_us_p99":                {quantile(a.applyUS, 0.99), "us"},
		"stable.apply_ops_per_call":          {per(applyOps, float64(applyCalls)), "count"},
		"stable.apply_kb_per_step":           {per(applyBytes, 1024*steps), "KB"},
		"stable.get_per_step":                {per(getCalls, steps), "count"},
		"stable.get_us_mean":                 {per(getNS, 1e3*float64(getCalls)), "us"},
		"stable.busy_frac":                   {per(keysNS+getNS+applyNS, 1e9*wall*numNodes), "frac"},
		"repl.batches_per_step":              {per(after.ReplBatches-before.ReplBatches, steps), "count"},
		"repl.acks_per_step":                 {per(after.ReplAcks-before.ReplAcks, steps), "count"},
		"repl.follower_apply_us_mean":        {per(replNS, 1e3*float64(replCalls)), "us"},
		"stable.wal.checkpoints":             {float64(after.WALCheckpoints - before.WALCheckpoints), "count"},
		"stable.wal.rotations":               {float64(after.WALRotations - before.WALRotations), "count"},
		"node.comp_txns_per_agent":           {per(after.CompTxns-before.CompTxns, agents), "count"},
		"node.comp_ops_per_agent":            {per(after.CompOps-before.CompOps, agents), "count"},
		"node.remote_comp_batches_per_agent": {per(after.RemoteCompBatches-before.RemoteCompBatches, agents), "count"},
		"core.log_kb_peak":                   {float64(after.LogBytesPeak) / 1024, "KB"},
		"core.savepoints_per_agent":          {per(after.Savepoints-before.Savepoints, agents), "count"},
		"resource.withdraw_us_mean":          {a.mean[spanWithdraw], "us"},
		"resource.deposit_us_mean":           {a.mean[spanDeposit], "us"},
		"sched.lock_aborts_per_step":         {per(after.SchedLockAborts-before.SchedLockAborts, steps), "count"},
		"sched.retries_per_step":             {per(after.SchedRetries-before.SchedRetries, steps), "count"},
		"node.step_aborts_per_step":          {per(after.StepTxnAborts-before.StepTxnAborts, steps), "count"},
		"sched.busy_frac":                    {per(after.SchedWorkerBusyNanos-before.SchedWorkerBusyNanos, 1e9*wall*numNodes*numWorkers), "frac"},
		"sched.inflight_peak":                {float64(after.SchedInFlightPeak), "count"},
		"node.transfers_per_step":            {per(after.AgentTransfers-before.AgentTransfers, steps), "count"},
		"node.transfer_kb_per_step":          {per(after.AgentTransferByte-before.AgentTransferByte, 1024*steps), "KB"},
		"rollback_ms_p50":                    {quantile(a.rollbackMS, 0.5), "ms"},
		"rollback_ms_p99":                    {quantile(a.rollbackMS, 0.99), "ms"},
		"agent_ms_p99":                       {overWindows(plain, func(w window) float64 { return quantile(w.latMS, 0.99) }), "ms"},
		"bench.gen_late_ms_p99":              {quantile(tr.lateMS, 0.99), "ms"},
		"bench.trace_overhead_frac":          {quantile(tr.latMS, 0.5)/quantile(plain.latMS, 0.5) - 1, "frac"},
		"bench.failed_frac":                  {per(int64(tr.failed+tr.unresolved), float64(tr.launched)), "frac"},
		"bench.unattributed_frac":            {unattributed, "frac"},
		"bench.spans_dropped":                {float64(rec.dropped()), "count"},
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	return m, nil
}

// printTable prints every metric by name and unit, with the sample
// counts behind the latency percentiles.
func printTable(name string, rep report, measured []phaseResult) {
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var n []string
	for _, r := range measured {
		for _, w := range r.windows {
			n = append(n, fmt.Sprint(len(w.latMS)))
		}
		n = append(n, "|")
	}
	fmt.Printf("workload %s: %d agents attempted, %d failed; latency samples per window: %s\n",
		name, rep.Attempted, rep.Failed, strings.Join(n[:len(n)-1], " "))
	for _, k := range keys {
		fmt.Printf("  %-36s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs (nearest rank), 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
