package metrics

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// promSnapshot is a fixed input exercising every exposition shape: plain
// counters, peaks (gauges), both kind-labeled maps, the batch histogram
// and the latency summary.
func promSnapshot() (Snapshot, LatencySummary) {
	var c Counters
	c.IncMessages(100)
	c.IncMessages(28)
	c.IncAgentTransfer(4096)
	c.IncStepTxn()
	c.IncStepTxnAbort()
	c.IncContainerDecode()
	c.IncCompOps(7)
	c.ObserveLogBytes(512)
	c.ObserveNetBatch(1)
	c.ObserveNetBatch(3)
	c.ObserveNetBatch(70)
	c.ObserveDecisionBatch(1)
	c.ObserveDecisionBatch(12)
	c.IncAckPiggybacked(4)
	c.AddWireBytes("q.prepare", 64)
	c.AddWireBytes("q.prepare", 36)
	c.AddWireBytes("a.commit", 8)
	c.IncSchedClaim(5)
	c.StepStarted()
	c.StepFinished(200*time.Microsecond, true)
	c.StepStarted()
	c.StepFinished(2*time.Millisecond, true)
	c.StepStarted()
	c.StepFinished(40*time.Millisecond, true)
	return c.Snapshot(), c.StepLatency()
}

func TestWritePrometheusGolden(t *testing.T) {
	s, lat := promSnapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s, lat); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file; run `go test ./internal/metrics -run Prometheus -update` if intentional.\n--- got ---\n%s", buf.String())
	}
}

// TestWritePrometheusStrictFormat runs the output through a strict text
// exposition (0.0.4) scanner: every line must be a well-formed TYPE
// comment or sample, every sample must belong to a declared family, and
// no family may be declared twice.
func TestWritePrometheusStrictFormat(t *testing.T) {
	s, lat := promSnapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s, lat); err != nil {
		t.Fatal(err)
	}
	families := scanExposition(t, buf.Bytes())

	// Spot-check samples the rest of the PR depends on.
	for _, name := range []string{
		"repro_messages_total", "repro_wire_bytes_by_kind_total",
		"repro_wire_msgs_by_kind_total", "repro_net_batch_size",
		"repro_log_bytes_peak", "repro_step_latency_seconds",
		"repro_step_latency_reservoir", "repro_wal_rotations_total",
	} {
		if _, ok := families[name]; !ok {
			t.Errorf("family %q missing from exposition", name)
		}
	}
	if typ := families["repro_log_bytes_peak"]; typ != "gauge" {
		t.Errorf("peak exposed as %q, want gauge", typ)
	}
	if typ := families["repro_net_batch_size"]; typ != "histogram" {
		t.Errorf("batch histogram exposed as %q", typ)
	}
}

// scanExposition validates data line by line and returns the family →
// type map. It fails the test on the first malformed line.
func scanExposition(t *testing.T, data []byte) map[string]string {
	t.Helper()
	families := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) != 4 || parts[1] != "TYPE" {
				t.Fatalf("line %d: malformed comment %q", lineNo, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary":
			default:
				t.Fatalf("line %d: unknown metric type %q", lineNo, parts[3])
			}
			if _, dup := families[parts[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", lineNo, parts[2])
			}
			families[parts[2]] = parts[3]
			continue
		}
		name, rest := splitMetricName(line)
		if name == "" {
			t.Fatalf("line %d: no metric name in %q", lineNo, line)
		}
		if !validMetricName(name) {
			t.Fatalf("line %d: invalid metric name %q", lineNo, name)
		}
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				t.Fatalf("line %d: unterminated label set in %q", lineNo, line)
			}
			validateLabels(t, lineNo, rest[1:end])
			rest = rest[end+1:]
		}
		if !strings.HasPrefix(rest, " ") {
			t.Fatalf("line %d: missing value separator in %q", lineNo, line)
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
			t.Fatalf("line %d: bad sample value in %q: %v", lineNo, line, err)
		}
		if _, ok := families[familyOf(name)]; !ok {
			t.Fatalf("line %d: sample %q has no TYPE declaration", lineNo, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families
}

func splitMetricName(line string) (name, rest string) {
	for i, r := range line {
		if r == '{' || r == ' ' {
			return line[:i], line[i:]
		}
	}
	return line, ""
}

func validMetricName(s string) bool {
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

func validateLabels(t *testing.T, lineNo int, labels string) {
	t.Helper()
	for _, pair := range strings.Split(labels, ",") {
		eq := strings.Index(pair, "=")
		if eq <= 0 {
			t.Fatalf("line %d: malformed label pair %q", lineNo, pair)
		}
		if !validMetricName(pair[:eq]) {
			t.Fatalf("line %d: invalid label name %q", lineNo, pair[:eq])
		}
		val := pair[eq+1:]
		if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
			t.Fatalf("line %d: unquoted label value %q", lineNo, val)
		}
	}
}

// familyOf strips histogram/summary sample suffixes to recover the
// declared family name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			return base
		}
	}
	return name
}
