package experiments

import (
	"path/filepath"
	"testing"
)

// TestApplyBenchBackends smoke-runs the durable-throughput harness and
// sanity-checks the group-commit and fsync accounting.
func TestApplyBenchBackends(t *testing.T) {
	res, err := RunApplyBench(ApplyBenchConfig{
		Workers:   2,
		Batches:   24,
		ValueSize: 64,
		Dir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchesPerS <= 0 {
		t.Error("non-positive throughput")
	}
	if res.GroupCommits <= 0 || res.GroupCommits > 24 {
		t.Errorf("group commits = %d", res.GroupCommits)
	}
	if res.Fsyncs <= 0 {
		t.Error("no fsyncs counted on the durable path")
	}
}

// TestRecoveryBenchBackends runs the recovery harness small and checks
// the shape of the claim: the checkpointed WAL replays less than the
// checkpoint-less one, and both recover the same live set.
func TestRecoveryBenchBackends(t *testing.T) {
	const history = 512
	results := map[string]RecoveryBenchResult{}
	for _, backend := range []string{"wal", "wal-nockpt"} {
		res, err := RunRecoveryBench(RecoveryBenchConfig{
			Backend: backend,
			History: history,
			Dir:     filepath.Join(t.TempDir(), backend),
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.LiveKeys != history/4 {
			t.Errorf("%s: live keys = %d, want %d", backend, res.LiveKeys, history/4)
		}
		results[backend] = res
	}
	if results["wal"].BytesReplayed >= results["wal-nockpt"].BytesReplayed {
		t.Errorf("checkpoint did not bound the replay: ckpt %d >= nockpt %d",
			results["wal"].BytesReplayed, results["wal-nockpt"].BytesReplayed)
	}
}
