package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/clock"
	"ipa/internal/loadgen"
	"ipa/internal/server"
)

// window is what one measurement window observed at the client side.
// Completed calls are ok or refused; errors and lost calls are not.
type window struct {
	start, end time.Time
	// calls holds every completed CALL (ok or refused).
	calls []call
	// late holds the open loop's send time minus due time, nanoseconds.
	late loadgen.Hist
	// vis holds visibility samples: the sampled call's reply time, and
	// the time from it until every other site covered the call.
	vis []call

	attempted, refused, errors, lost int64
	// firstErr is one of the error replies, to name in a failure.
	firstErr string
	spans    []span
}

// failure reports a window in which a CALL got an error reply other than
// a guard refusal, or was lost to a broken connection.
func (w *window) failure() error {
	if w.errors+w.lost == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d calls failed: %d error replies (one: %q), %d lost to the connection", w.errors+w.lost, w.attempted, w.errors, w.firstErr, w.lost)
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// throughput is completed calls per second from the window's start to
// its last reply.
func (w *window) throughput() float64 { return float64(len(w.calls)) / w.seconds() }

// connResult is one connection's share of a window.
type connResult struct {
	calls                            []call
	late                             loadgen.Hist
	attempted, refused, errors, lost int64
	firstErr                         string
	last                             time.Time
	spans                            []span
}

// call is one completed CALL: its reply time, nanoseconds into the
// window, and its latency in nanoseconds (closed loop from the call's
// own send to its own reply, open loop from its due time).
type call struct{ at, lat int64 }

// record classifies a CALL reply: a PRECONDITION error is a guarded
// no-op (completed, refused); any other error reply is an error and has
// no latency sample.
func (r *connResult) record(rp server.Reply, c call) {
	if rp.Kind == '-' && !strings.HasPrefix(rp.Str, "PRECONDITION") {
		if r.errors == 0 {
			r.firstErr = rp.Str
		}
		r.errors++
		return
	}
	if rp.Kind == '-' {
		r.refused++
	}
	r.calls = append(r.calls, c)
}

// maxStretch bounds a closed loop's window at this many times its
// nominal length, so a program far slower than the one the workload was
// sized for still ends its run in time, serving fewer calls.
const maxStretch = 3

// runWindow drives the env's load connections and returns the merged
// result. The open loop runs for d; the closed loop serves the
// workload's perSecond calls for every second of d (see maxStretch).
// Every connection draws its call stream from its own generator, seeded
// from seed. tr, when set, receives one client.call span per CALL under
// parent.
func (e *env) runWindow(d time.Duration, seed int64, tr *tracer, parent int64) *window {
	rng := rand.New(rand.NewSource(seed))
	res := make([]connResult, len(e.load))
	w := &window{start: time.Now()}
	vs := newVisSampler(e, w.start)
	deadline := w.start.Add(d)
	// batches is the closed loop's budget, shared by its connections so
	// they finish within one batch of each other.
	var batches atomic.Int64
	if e.w.rate == 0 {
		batches.Store(int64(math.Ceil(float64(e.w.perSecond) * d.Seconds() / pipeline)))
		deadline = w.start.Add(maxStretch * d)
	}
	var wg sync.WaitGroup
	for i, lc := range e.load {
		gen, err := loadgen.NewCallGen(e.w.mix, rng.Int63())
		if err != nil {
			panic(err) // the mixes are fixed in workloads.go
		}
		wg.Add(1)
		go func(i int, lc *loadConn) {
			defer wg.Done()
			c := &conn{lc: lc, gen: gen, app: e.app, vis: vs, tr: tr, parent: parent, res: &res[i], t0: w.start}
			if e.w.rate > 0 {
				interval := time.Duration(float64(time.Second) * float64(len(e.load)) / e.w.rate)
				c.open(w.start.Add(interval*time.Duration(i)/time.Duration(len(e.load))), interval, deadline)
			} else {
				c.closed(deadline, &batches)
			}
		}(i, lc)
	}
	wg.Wait()
	vs.stop()
	w.vis = vs.samples
	for i := range res {
		r := &res[i]
		w.calls = append(w.calls, r.calls...)
		w.late.Merge(&r.late)
		w.attempted += r.attempted
		w.refused += r.refused
		w.errors += r.errors
		w.lost += r.lost
		if w.firstErr == "" {
			w.firstErr = r.firstErr
		}
		w.spans = append(w.spans, r.spans...)
		if r.last.After(w.end) {
			w.end = r.last
		}
	}
	if !w.end.After(w.start) {
		w.end = time.Now()
	}
	return w
}

// conn drives one load connection.
type conn struct {
	lc     *loadConn
	gen    *loadgen.CallGen
	app    string
	vis    *visSampler
	tr     *tracer
	parent int64
	res    *connResult
	args   []string
	t0     time.Time // window start
}

// send queues one generated CALL.
func (c *conn) send() {
	c.args = append(append(c.args[:0], "CALL", c.app), c.gen.Next()...)
	c.lc.cli.Send(c.args...)
}

func (c *conn) span(start, end time.Time) {
	if c.tr != nil {
		c.res.spans = append(c.res.spans, span{name: "client.call", id: c.tr.nextID.Add(1), parent: c.parent, start: c.tr.at(start), end: c.tr.at(end)})
	}
}

// closed runs the closed loop: a pipelined batch of calls goes out in
// one write, and each call is timed from that send to its own reply.
// The next batch goes out once the last reply is in, until the shared
// budget of batches is spent or the deadline passes. A wire failure
// counts the batch's unanswered calls as lost and ends the connection.
func (c *conn) closed(deadline time.Time, batches *atomic.Int64) {
	r := c.res
	for time.Now().Before(deadline) && batches.Add(-1) >= 0 {
		for j := 0; j < pipeline; j++ {
			c.send()
		}
		r.attempted += pipeline
		sent := time.Now()
		if err := c.lc.cli.Flush(); err != nil {
			r.lost += pipeline
			return
		}
		var at time.Time
		for j := 0; j < pipeline; j++ {
			rp, err := c.lc.cli.Recv()
			if err != nil {
				r.lost += int64(pipeline - j)
				return
			}
			at = time.Now()
			r.record(rp, call{at: at.Sub(c.t0).Nanoseconds(), lat: at.Sub(sent).Nanoseconds()})
			c.span(sent, at)
		}
		r.last = at
		c.vis.offer(c.lc.site, at)
	}
}

// open runs the open loop: call k is due at first + k·interval, sent
// when due (or at once when the sender runs late: the schedule is never
// re-anchored), and timed from its due time to its reply. A separate
// reader takes the replies so a slow reply never delays later sends.
func (c *conn) open(first time.Time, interval time.Duration, deadline time.Time) {
	r := c.res
	type sent struct{ due, at time.Time }
	n := 0
	for first.Add(interval * time.Duration(n)).Before(deadline) {
		n++
	}
	// Sized to every send of the window, so the sender never blocks on
	// the reader.
	inflight := make(chan sent, n)
	var failed atomic.Bool
	var received int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range inflight {
			if failed.Load() {
				continue
			}
			rp, err := c.lc.cli.Recv()
			if err != nil {
				failed.Store(true)
				continue
			}
			at := time.Now()
			received++
			r.record(rp, call{at: at.Sub(c.t0).Nanoseconds(), lat: at.Sub(s.due).Nanoseconds()})
			c.span(s.at, at)
			r.last = at
			c.vis.offer(c.lc.site, at)
		}
	}()
	for k := 0; k < n && !failed.Load(); k++ {
		due := first.Add(interval * time.Duration(k))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		c.send()
		at := time.Now()
		r.attempted++
		if err := c.lc.cli.Flush(); err != nil {
			failed.Store(true)
			break
		}
		r.late.Record(at.Sub(due).Nanoseconds())
		inflight <- sent{due, at}
	}
	close(inflight)
	<-done
	r.lost = r.attempted - received
}

// visSampler measures replication visibility: after a sampled call's
// reply it reads the origin site's causal cut, then polls every other
// site until each covers that cut's origin entry. A new sample is taken
// every visGap, several may be in flight, and one poll of every site's
// clock per visPoll serves them all, so the polling stays a small load
// on the replicas' clock locks however slow visibility gets.
type visSampler struct {
	e       *env
	t0      time.Time // window start
	want    atomic.Bool
	req     chan visReq
	quit    chan struct{}
	done    chan struct{}
	samples []call
}

type visReq struct {
	origin clock.ReplicaID
	entry  uint64
	at     time.Time
}

const (
	visGap  = 500 * time.Microsecond
	visPoll = 200 * time.Microsecond
)

func newVisSampler(e *env, t0 time.Time) *visSampler {
	// One request per visGap and a drain every visPoll: a few slots
	// absorb a late drain, and offer drops rather than blocks.
	v := &visSampler{e: e, t0: t0, req: make(chan visReq, 4), quit: make(chan struct{}), done: make(chan struct{})}
	v.want.Store(true)
	go v.loop()
	return v
}

// offer hands the sampler a reply from site received at t, if the
// sampler wants a new sample.
func (v *visSampler) offer(site clock.ReplicaID, at time.Time) {
	if !v.want.Load() || !v.want.CompareAndSwap(true, false) {
		return
	}
	select {
	case v.req <- visReq{origin: site, entry: v.e.nodes[site].Clock().Get(site), at: at}:
	default:
	}
}

func (v *visSampler) loop() {
	defer close(v.done)
	tick := time.NewTicker(visPoll)
	defer tick.Stop()
	var pending []visReq
	armed := time.Now()
	for {
		select {
		case r := <-v.req:
			pending = append(pending, r)
			continue
		case <-v.quit:
			return
		case now := <-tick.C:
			if len(pending) > 0 {
				pending = v.resolve(pending, now)
			}
			if now.Sub(armed) >= visGap {
				v.want.Store(true)
				armed = now
			}
		}
	}
}

// resolve records the samples every other site now covers and returns
// the rest.
func (v *visSampler) resolve(pending []visReq, now time.Time) []visReq {
	cuts := make(map[clock.ReplicaID]clock.Vector, len(v.e.sites))
	for _, id := range v.e.sites {
		cuts[id] = v.e.nodes[id].Clock()
	}
	left := pending[:0]
	for _, r := range pending {
		seen := true
		for id, cut := range cuts {
			if id != r.origin && cut.Get(r.origin) < r.entry {
				seen = false
			}
		}
		if seen {
			v.samples = append(v.samples, call{at: r.at.Sub(v.t0).Nanoseconds(), lat: now.Sub(r.at).Nanoseconds()})
		} else {
			left = append(left, r)
		}
	}
	return left
}

func (v *visSampler) stop() {
	close(v.quit)
	<-v.done
}

// samples are exact nanosecond readings. The end-to-end latency
// quantiles come from these rather than a loadgen.Hist: the histogram's
// bucket midpoints (about 1.6% apart) would read a tight distribution
// identically in run after run.
type samples []int64

// quantile returns the nearest-rank p-quantile of sorted samples.
func (s samples) quantile(p float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// bySlice splits the window into n equal slices by reply time and
// returns each slice's latencies, sorted.
func (w *window) bySlice(cs []call, n int) []samples {
	out := make([]samples, n)
	width := w.end.Sub(w.start).Nanoseconds()/int64(n) + 1
	for _, c := range cs {
		if k := c.at / width; k >= 0 && k < int64(n) {
			out[k] = append(out[k], c.lat)
		}
	}
	for _, s := range out {
		slices.Sort(s)
	}
	return out
}
