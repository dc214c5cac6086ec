package main

import (
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stable"
)

func testLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("a=h1:1, b=h2:2,c=h3:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers["b"] != "h2:2" {
		t.Errorf("peers = %v", peers)
	}
	if got, err := parsePeers(""); err != nil || len(got) != 0 {
		t.Errorf("empty: %v, %v", got, err)
	}
	for _, bad := range []string{"noequals", "=addr", "name="} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("bad peer %q accepted", bad)
		}
	}
}

func TestParseResources(t *testing.T) {
	factories, err := parseResources("bank=b1,shop=s1,dir=d1,exchange=e1")
	if err != nil {
		t.Fatal(err)
	}
	if len(factories) != 4 {
		t.Fatalf("factories = %d, want 4", len(factories))
	}
	store := stable.NewMemStore(nil)
	names := map[string]string{}
	for _, f := range factories {
		r, err := f(store)
		if err != nil {
			t.Fatal(err)
		}
		names[r.Name()] = r.Kind()
	}
	want := map[string]string{"b1": "bank", "s1": "shop", "d1": "directory", "e1": "exchange"}
	for n, k := range want {
		if names[n] != k {
			t.Errorf("resource %q kind = %q, want %q", n, names[n], k)
		}
	}
	if _, err := parseResources("alien=x"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := parseResources("nokind"); err == nil {
		t.Error("malformed spec accepted")
	}
}

func TestRunRequiresFlags(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing flags accepted")
	}
	if err := run([]string{"-name", "A"}); err == nil {
		t.Error("missing listen/data accepted")
	}
}

// TestOpenStoreLayoutGuard: a data dir holding the retired file engine's
// kv/ layout must be refused, never silently started empty; a wal dir
// reopens with its data; an unknown engine is rejected by stable.Open.
func TestOpenStoreLayoutGuard(t *testing.T) {
	spec := func(engine, dir string) stable.Spec {
		return stable.Spec{Engine: engine, Dir: dir}
	}
	kvDir := t.TempDir()
	if err := os.Mkdir(filepath.Join(kvDir, "kv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := openStore(spec("wal", kvDir), testLogger()); err == nil || !strings.Contains(err.Error(), "kv/") {
		t.Errorf("wal engine opened a kv/ layout: %v", err)
	}

	walDir := t.TempDir()
	ws, err := openStore(spec("wal", walDir), testLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Apply(stable.Put("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	_ = stable.Close(ws)
	ws2, err := openStore(spec("wal", walDir), testLogger())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := ws2.Get("k"); !ok || string(v) != "v" {
		t.Errorf("wal reopen lost data: %q %v", v, ok)
	}
	_ = stable.Close(ws2)

	for _, engine := range []string{"papyrus", "file"} {
		if _, err := openStore(spec(engine, t.TempDir()), testLogger()); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("engine %q: got %v, want stable.Open's unknown-engine error", engine, err)
		}
	}
}

// TestRunRejectsRepl: the standalone process has no peers to hold
// replicas; -repl must be refused up front, not silently ignored.
func TestRunRejectsRepl(t *testing.T) {
	err := run([]string{"-name", "A", "-listen", ":0", "-data", t.TempDir(), "-repl", "2"})
	if err == nil || !strings.Contains(err.Error(), "-repl") {
		t.Errorf("standalone -repl accepted: %v", err)
	}
}
