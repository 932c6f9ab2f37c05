package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/clock"
	"ipa/internal/runtime"
	"ipa/internal/store"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	name       string
	id, parent int64
	start, end int64
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. A nil *tracer records nothing, so the untraced
// path calls the same methods at the cost of a nil check.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall time to tracer nanoseconds.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.epoch).Nanoseconds() }

// record stores a finished span and returns its id (0 when untraced).
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	id := t.reserve()
	t.recordAs(name, id, parent, start, end)
	return id
}

// add appends spans a single goroutine collected on its own (the load
// connections keep theirs locally and hand them over at the end).
func (t *tracer) add(spans []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// write dumps every span as tab-separated name, id, parent, start, end.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineSpans collects the engine.call spans of the traced window from
// the replica wrapper below, plus the count of those that wrote.
type engineSpans struct {
	tr     *tracer
	parent int64
	on     atomic.Bool

	mu      sync.Mutex
	spans   []span
	updates int64
}

func (e *engineSpans) done(start time.Time, wrote bool) {
	if !e.on.Load() {
		return
	}
	end := time.Now()
	s := span{name: "engine.call", id: e.tr.nextID.Add(1), parent: e.parent, start: e.tr.at(start), end: e.tr.at(end)}
	e.mu.Lock()
	e.spans = append(e.spans, s)
	if wrote {
		e.updates++
	}
	e.mu.Unlock()
}

// tracedCluster is the cluster handed to server.New in the traced run.
// The server looks up the session's replica once per CALL and the
// engine runs the call as one transaction on it, so an engine.call span
// runs from that lookup to the transaction's OnFinish: extract, guard,
// plan, execute, store commit, replication enqueue and, on a durable
// cluster, the WAL fsync wait.
type tracedCluster struct {
	runtime.Cluster
	spans *engineSpans
}

func (c *tracedCluster) Replica(id clock.ReplicaID) runtime.Replica {
	return &tracedReplica{Replica: c.Cluster.Replica(id), spans: c.spans, start: time.Now()}
}

type tracedReplica struct {
	runtime.Replica
	spans *engineSpans
	start time.Time
}

func (r *tracedReplica) Begin() *store.Txn {
	tx := r.Replica.Begin()
	tx.OnFinish(func() { r.spans.done(r.start, tx.Updates() > 0) })
	return tx
}

// reserve allocates a span id ahead of the span's end, so children can
// name their parent before it is recorded (0 when untraced).
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// recordAs stores a span under an id from reserve.
func (t *tracer) recordAs(name string, id, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: t.at(start), end: t.at(end)})
	t.mu.Unlock()
}
