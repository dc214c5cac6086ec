package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/stable"
)

// TestLoadgenSmoke runs a tiny sweep end to end and checks the JSON
// report shape.
func TestLoadgenSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	err := run([]string{
		"-nodes", "2", "-agents", "6", "-steps", "2", "-banks", "2",
		"-stepwork", "1ms", "-latency", "0",
		"-sweep", "1,2", "-json", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var reports []runReport
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.AgentsPerSec <= 0 || r.StepsPerSec <= 0 {
			t.Errorf("workers=%d: non-positive throughput %+v", r.Workers, r)
		}
		if r.P99MS < r.P50MS {
			t.Errorf("workers=%d: p99 %.3f < p50 %.3f", r.Workers, r.P99MS, r.P50MS)
		}
	}
	if reports[0].Workers != 1 || reports[1].Workers != 2 {
		t.Errorf("sweep order wrong: %v", reports)
	}
}

func TestLoadgenBadFlags(t *testing.T) {
	if err := run([]string{"-sweep", "1,zero"}); err == nil {
		t.Error("bad sweep accepted")
	}
	for _, engine := range []string{"papyrus", "file"} {
		if err := run([]string{"-store", engine}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("-store %s: got %v, want stable.Open's unknown-engine error", engine, err)
		}
		if err := run([]string{"-chaos", "-store", engine}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("-chaos -store %s: got %v, want stable.Open's unknown-engine error", engine, err)
		}
	}
	for _, retired := range []string{"-noctlbatch", "-nobatch", "-wire"} {
		if err := run([]string{retired}); err == nil {
			t.Errorf("retired flag %s accepted", retired)
		}
	}
}

// TestLoadgenChaosReproLine: the chaos repro line must carry every
// non-default option of the run that failed, so it replays the same cell.
func TestLoadgenChaosReproLine(t *testing.T) {
	line := chaosRepro(chaos.Options{Seed: 7, Store: "wal", Workers: 4, Nodes: 5, Repl: 2, ReplAcks: "quorum", Kills: 2})
	for _, want := range []string{
		"-chaos-seed=7", "-store=wal", "-workers=4", "-nodes=5",
		"-repl=2", "-repl-acks=quorum", "-chaos-kill=2",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("repro line %q lacks %s", line, want)
		}
	}
	plain := chaosRepro(chaos.Options{Seed: 1, Store: "mem", Workers: 1, Nodes: 4})
	for _, absent := range []string{"-repl", "-chaos-kill"} {
		if strings.Contains(plain, absent) {
			t.Errorf("default-cell repro line %q carries %s", plain, absent)
		}
	}
}

// TestLoadgenChaosReplay replays one chaos seed through the CLI and
// checks the JSON report shape — the path CI's repro command takes.
func TestLoadgenChaosReplay(t *testing.T) {
	out := filepath.Join(t.TempDir(), "chaos.json")
	err := run([]string{
		"-chaos", "-chaos-seed", "1", "-nodes", "3", "-workers", "2",
		"-json", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var reports []chaosReport
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d chaos reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Seed != 1 || r.Workers != 2 || r.Nodes != 3 || r.Store != "mem" {
		t.Errorf("report header wrong: %+v", r)
	}
	if len(r.Violations) != 0 {
		t.Errorf("seed 1 violated invariants: %v", r.Violations)
	}
	if r.Crashes+r.Partitions+r.FaultWins == 0 {
		t.Error("schedule contained no fault windows at all")
	}
}

// TestLoadgenStoreBackends drives a tiny run against each storage engine
// and checks the durable backends actually hit stable storage.
func TestLoadgenStoreBackends(t *testing.T) {
	out := filepath.Join(t.TempDir(), "stores.json")
	err := run([]string{
		"-nodes", "2", "-agents", "4", "-steps", "2", "-banks", "2",
		"-stepwork", "1ms", "-latency", "0", "-workers", "2",
		"-storesweep", "-json", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var reports []runReport
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	if engines := stable.Engines(); len(reports) != len(engines) {
		t.Fatalf("got %d reports, want one per engine %v", len(reports), engines)
	}
	for _, r := range reports {
		if r.AgentsPerSec <= 0 {
			t.Errorf("store=%s: non-positive throughput", r.Store)
		}
		if r.StableWrites <= 0 {
			t.Errorf("store=%s: no stable writes recorded", r.Store)
		}
	}
}
