package main

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/stable"
	_ "repro/internal/stable/wal" // registers the "wal" engine wrapped below
)

// Timed engines wrap the program's own engines from outside: the cluster
// opens them through stable.Open like any other engine, and every Get,
// Keys and Apply is counted and timed while the recorder is tracing.
// "timed-mem" wraps "mem", "timed-wal" wraps "wal".
const (
	engineMem = "timed-mem"
	engineWAL = "timed-wal"
)

func init() {
	for name, inner := range map[string]string{engineMem: "mem", engineWAL: "wal"} {
		stable.RegisterEngine(name, func(spec stable.Spec) (stable.Store, error) {
			role, node := storeRole(spec.Dir)
			spec.Engine = inner
			st, err := stable.Open(spec)
			if err != nil {
				return nil, err
			}
			return &timedStore{inner: st, role: role, node: nodeIndex(node)}, nil
		})
	}
}

// storeRole tells a shard primary from a follower replica by its data
// directory: the cluster roots replicas under <holder>/replica/<shard>.<gen>
// and primaries under <node>.
func storeRole(dir string) (role int, node string) {
	if i := strings.Index(dir, "/replica/"); i >= 0 {
		return roleReplica, filepath.Base(dir[:i])
	}
	return rolePrimary, filepath.Base(dir)
}

const (
	rolePrimary = iota
	roleReplica
	numRoles
)

const (
	opGet = iota
	opKeys
	opApply
	numStoreOps
)

// storeStats accumulates one (role, operation) cell.
type storeStats struct {
	calls, ops, bytes, nanos atomic.Int64
}

// timedStore forwards to the wrapped engine and, while the recorder
// traces, records each call as a span plus counts.
type timedStore struct {
	inner stable.Store
	role  int
	node  uint8
}

func (s *timedStore) Get(key string) ([]byte, bool, error) {
	if !rec.tracing.Load() {
		return s.inner.Get(key)
	}
	start := time.Now()
	v, ok, err := s.inner.Get(key)
	s.observe(opGet, start, 1, int64(len(v)))
	return v, ok, err
}

func (s *timedStore) Keys(prefix string) ([]string, error) {
	if !rec.tracing.Load() {
		return s.inner.Keys(prefix)
	}
	start := time.Now()
	keys, err := s.inner.Keys(prefix)
	s.observe(opKeys, start, int64(len(keys)), 0)
	return keys, err
}

func (s *timedStore) Apply(batch ...stable.Op) error {
	if !rec.tracing.Load() {
		return s.inner.Apply(batch...)
	}
	start := time.Now()
	err := s.inner.Apply(batch...)
	var n int64
	for _, op := range batch {
		n += int64(len(op.Key) + len(op.Value))
	}
	s.observe(opApply, start, int64(len(batch)), n)
	return err
}

// Close forwards to durable engines (stable.Reopener); mem has no handle.
func (s *timedStore) Close() error { return stable.Close(s.inner) }

func (s *timedStore) observe(op int, start time.Time, ops, bytes int64) {
	end := time.Now()
	rec.put(func() {
		st := &rec.store[s.role][op]
		st.calls.Add(1)
		st.ops.Add(ops)
		st.bytes.Add(bytes)
		st.nanos.Add(int64(end.Sub(start)))
		if s.role != rolePrimary {
			return
		}
		if id := rec.reserve(); id >= 0 {
			rec.spans[id] = span{kind: spanStoreGet + uint8(op), agent: -1, parent: -1, seq: -1, node: s.node,
				start: rec.since(start), end: rec.since(end)}
		}
	})
}
