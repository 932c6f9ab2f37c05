package netrepl

import (
	"testing"
	"time"
)

// TestIdleLinkSendsWithoutLinger commits once on an idle link with a
// minute-long flush interval: the transaction must leave at once instead
// of waiting out the coalescing window.
func TestIdleLinkSendsWithoutLinger(t *testing.T) {
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", Config{FlushInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())

	commitN(a, "c", 1)
	waitWithin(t, time.Second, "lone txn reaches the peer", func() bool { return counterValue(b, "c") == 1 })
}

// TestBusyLinkStillCoalesces commits a burst on the same configuration:
// only what is queued when the idle link's first frame leaves goes
// without lingering; the rest coalesces into full batches, and the
// remainder waits in the window until Close flushes it.
func TestBusyLinkStillCoalesces(t *testing.T) {
	cfg := Config{FlushInterval: time.Minute, MaxBatchTxns: 100}
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())

	commitN(a, "c", 200)
	// The idle frame carries at most MaxBatchTxns, so a full batch must
	// follow it without waiting for the minute-long timer.
	waitUntil(t, "a full batch sent", func() bool { return a.Stats().TxnsSent > 100 })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.TxnsSent != 200 || s.FramesSent > 3 {
		t.Fatalf("burst of 200 sent as %d txns in %d frames, want 200 in at most 3", s.TxnsSent, s.FramesSent)
	}
	waitUntil(t, "all txns delivered", func() bool { return counterValue(b, "c") == 200 })
}

// TestCollectAllocatesNothing drains a pre-filled queue through collect
// on both paths: the batch buffer and the linger timer are the peer's
// own, reused for every frame.
func TestCollectAllocatesNothing(t *testing.T) {
	n, err := NewNodeWithConfig("a", "127.0.0.1:0", Config{MaxBatchTxns: 16, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p := newPeerConn(n, "b", "127.0.0.1:1")
	txns := captureTxns("a", "c", 16)
	for _, tc := range []struct {
		name string
		last func() time.Time
	}{
		{"idle", func() time.Time { return time.Time{} }},
		{"busy", time.Now},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			for _, w := range txns {
				p.ch <- w
			}
			p.lastFrame = tc.last()
			if got := len(p.collect()); got != len(txns) {
				t.Fatalf("%s: collected %d txns, want %d", tc.name, got, len(txns))
			}
			clear(p.batch)
		})
		if allocs != 0 {
			t.Errorf("%s: collect allocated %.1f times per frame, want 0", tc.name, allocs)
		}
	}
}
