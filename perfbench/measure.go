package main

import (
	"fmt"
	goruntime "runtime"
	"runtime/metrics"
	"sync"
	"time"

	"ipa/internal/loadgen"
	"ipa/internal/netrepl"
	"ipa/internal/server"
)

// measured is one window on one env, with what happened after it.
type measured struct {
	win    *window
	heapMB float64
	ver    *verification

	// Traced window only.
	engine        []span
	engineUpdates int64
	// engineQ1 and engineQ4 hold engine.call durations of the spans that
	// start in the window's first and last quarter.
	engineQ1, engineQ4     loadgen.Hist
	settle, stabilize      time.Duration
	before, atEnd, settled snapshot
	maxima                 maxima
	dropped                uint64
}

// measure runs an untraced window, reads the live heap after a forced
// GC, verifies and tears the env down.
func measure(e *env, d time.Duration, seed int64) (*measured, error) {
	// Collect the setup's garbage, so every window starts from the same
	// heap.
	goruntime.GC()
	m := &measured{win: e.runWindow(d, seed, nil, 0)}
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	var err error
	m.ver, err = e.verify(nil, 0)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	return m, err
}

// measureTraced runs the traced window: client.call and engine.call
// spans, a sampler of queue depths, counter snapshots at the window's
// boundaries, then a timed Settle and Stabilize, verification and
// teardown, each as spans.
func measureTraced(e *env, d time.Duration, seed int64, tr *tracer) (*measured, error) {
	m := &measured{}
	winID, postID := tr.reserve(), tr.reserve()
	e.engine.parent = winID
	goruntime.GC()
	m.before = e.snapshot()
	smp := startSampler(e)
	e.engine.on.Store(true)
	m.win = e.runWindow(d, seed, tr, winID)
	e.engine.on.Store(false)
	m.maxima = smp.stop()
	m.atEnd = e.snapshot()
	tr.recordAs("window", winID, 0, m.win.start, m.win.end)
	tr.add(m.win.spans)
	e.engine.mu.Lock()
	m.engine, m.engineUpdates = e.engine.spans, e.engine.updates
	e.engine.mu.Unlock()
	tr.add(m.engine)
	start, quarter := tr.at(m.win.start), m.win.end.Sub(m.win.start).Nanoseconds()/4
	for _, s := range m.engine {
		switch {
		case s.start < start+quarter:
			m.engineQ1.Record(s.end - s.start)
		case s.start >= start+3*quarter:
			m.engineQ4.Record(s.end - s.start)
		}
	}

	t0 := time.Now()
	if err := e.nc.Settle(); err != nil {
		e.close()
		return nil, err
	}
	t1 := time.Now()
	e.nc.Stabilize()
	t2 := time.Now()
	m.settle, m.stabilize = t1.Sub(t0), t2.Sub(t1)
	tr.record("runtime.settle", postID, t0, t1)
	tr.record("runtime.stabilize", postID, t1, t2)
	m.settled = e.snapshot()
	var err error
	m.ver, err = e.verify(tr, postID)
	cerr := e.close()
	tr.recordAs("post", postID, 0, t0, time.Now())
	if err == nil {
		err = cerr
	}
	for _, n := range e.nodes {
		m.dropped += n.Stats().TxnsDropped
	}
	return m, err
}

// snapshot is the counters at one boundary, summed over sites.
type snapshot struct {
	repl  netrepl.Metrics
	srv   server.Stats
	alloc uint64  // bytes allocated since process start
	gcCPU float64 // GC CPU seconds since process start
}

func (e *env) snapshot() snapshot {
	var s snapshot
	for _, n := range e.nodes {
		m := n.Stats()
		s.repl.FramesSent += m.FramesSent
		s.repl.TxnsSent += m.TxnsSent
		s.repl.BytesSent += m.BytesSent
		s.repl.SendErrors += m.SendErrors
		s.repl.Reconnects += m.Reconnects
		s.repl.BackpressureWaits += m.BackpressureWaits
		s.repl.WALAppends += m.WALAppends
		s.repl.WALSyncs += m.WALSyncs
		s.repl.WALBytes += m.WALBytes
	}
	s.srv = e.srv.Stats()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	return s
}

// maxima are the sampled high-water marks over the window, summed
// over sites at each sample.
type maxima struct {
	queue, apply, pending int
	samples               int
}

type sampler struct {
	e    *env
	quit chan struct{}
	wg   sync.WaitGroup
	max  maxima
}

const samplePeriod = 5 * time.Millisecond

func startSampler(e *env) *sampler {
	s := &sampler{e: e, quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
			var q, a, p int
			for _, n := range e.nodes {
				st := n.Stats()
				q += st.QueueDepth
				a += st.ApplyDepth
				p += n.Replica().PendingCount()
			}
			s.max.queue = max(s.max.queue, q)
			s.max.apply = max(s.max.apply, a)
			s.max.pending = max(s.max.pending, p)
			s.max.samples++
		}
	}()
	return s
}

func (s *sampler) stop() maxima {
	close(s.quit)
	s.wg.Wait()
	return s.max
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// figures are the client-side figures of a run's windows. Each is the
// median over equal slices of every window, so a transient stall of the
// shared host moves one slice, not the figure: ten slices a window for
// the closed loops, one for the open loop, whose windows hold a few
// hundred calls (600 at 300 calls/s in a 10 s run). Its throughput is its
// offered rate, so it is taken over the whole windows instead (slices
// would read it back nearly exactly).
type figures struct {
	thr, p50, p90, p99  float64
	vis50, vis90, vis99 float64
	calls, visSamples   string
}

func figuresOf(wins []*window, open bool) figures {
	per := 10
	if open {
		per = 1
	}
	var f figures
	var thr, p50, p90, p99, v50, v90, v99 []float64
	var calls, vis int
	var secs float64
	for _, win := range wins {
		for _, s := range win.bySlice(win.calls, per) {
			thr = append(thr, float64(len(s))/(win.seconds()/float64(per)))
			p50 = append(p50, nsToMs(s.quantile(0.50)))
			p90 = append(p90, nsToMs(s.quantile(0.90)))
			p99 = append(p99, nsToMs(s.quantile(0.99)))
		}
		for _, s := range win.bySlice(win.vis, per) {
			v50 = append(v50, nsToMs(s.quantile(0.50)))
			v90 = append(v90, nsToMs(s.quantile(0.90)))
			v99 = append(v99, nsToMs(s.quantile(0.99)))
		}
		calls, vis, secs = calls+len(win.calls), vis+len(win.vis), secs+win.seconds()
	}
	f.thr, f.p50, f.p90, f.p99 = median(thr), median(p50), median(p90), median(p99)
	if open {
		f.thr = float64(calls) / secs
	}
	f.vis50, f.vis90, f.vis99 = median(v50), median(v90), median(v99)
	slices := fmt.Sprintf("median of %d slices of %d windows", per*len(wins), len(wins))
	f.calls = fmt.Sprintf("%s; n=%d calls in %.3f s", slices, calls, secs)
	f.visSamples = fmt.Sprintf("%s; n=%d sampled calls", slices, vis)
	return f
}

// endToEnd adds the end-to-end metrics of the untraced windows. With
// inJSON false (the traced run) they are listed but the JSON carries the
// per-layer metrics instead.
func (r *result) endToEnd(w workload, ms []*measured, stages []stageTimes, inJSON bool) {
	put := r.add
	if !inJSON {
		put = r.note
	}
	var wins []*window
	var heap []float64
	worst := ms[0].ver
	var attempted, refused, failed int64
	for _, m := range ms {
		wins, heap = append(wins, m.win), append(heap, m.heapMB)
		if len(m.ver.violations) > len(worst.violations) {
			worst = m.ver
		}
		attempted, refused, failed = attempted+m.win.attempted, refused+m.win.refused, failed+m.win.errors+m.win.lost
	}
	f := figuresOf(wins, w.rate > 0)
	put("setup_s", stageMedian(stages, func(s stageTimes) time.Duration { return s.total }), "s",
		fmt.Sprintf("median of n=%d setups", len(stages)))
	put("throughput_ops", f.thr, "1/s", f.calls)
	put("call_p50_ms", f.p50, "ms", f.calls)
	put("visibility_p50_ms", f.vis50, "ms", f.visSamples)
	put("heap_mb", median(heap), "MB", fmt.Sprintf("median of n=%d readings of the live heap after a forced GC at window end", len(heap)))
	// The tails below swing from run to run by more than any bound the
	// benchmark may set, and the shares and violations are zero on some
	// workloads by design, so these are listed in every run and carried
	// in the traced run's JSON (see README.md).
	r.note("call_p90_ms", f.p90, "ms", f.calls)
	r.note("call_p99_ms", f.p99, "ms", f.calls)
	r.note("visibility_p90_ms", f.vis90, "ms", f.visSamples)
	r.note("visibility_p99_ms", f.vis99, "ms", f.visSamples)
	att := fmt.Sprintf("n=%d calls attempted", attempted)
	r.note("refused_share", ratio(float64(refused), float64(attempted)), "share", att)
	r.note("error_share", ratio(float64(failed), float64(attempted)), "share", att)
	r.note("invariant_violations", float64(len(worst.violations)), "count",
		fmt.Sprintf("(site, clause) pairs over n=%d sites after settle and repair, most of n=%d windows", len(sites()), len(ms)))
	for _, v := range worst.violations {
		r.lines = append(r.lines, "  violation: "+v)
	}
	if w.rate > 0 {
		r.note("open_loop_rate", w.rate, "1/s", fmt.Sprintf("fleet-wide over %d connections", conns))
	}
}

// perLayer adds the traced run's metrics. base are the untraced windows
// of the same run, for the tails and the tracing overhead.
func (r *result) perLayer(w workload, base []*measured, m *measured, stages []stageTimes) {
	win := m.win
	secs := win.seconds()
	setups := fmt.Sprintf("median of n=%d setups", len(stages))
	r.add("analysis.run_s", stageMedian(stages, func(s stageTimes) time.Duration { return s.analyze }), "s", setups)
	r.add("engine.compile_ms", 1e3*stageMedian(stages, func(s stageTimes) time.Duration { return s.compile }), "ms", setups)
	r.add("runtime.cluster_up_ms", 1e3*stageMedian(stages, func(s stageTimes) time.Duration { return s.clusterUp }), "ms", setups)
	r.add("setup.seed_ms", 1e3*stageMedian(stages, func(s stageTimes) time.Duration { return s.seed }), "ms", setups)

	var eng loadgen.Hist
	for _, s := range m.engine {
		eng.Record(s.end - s.start)
	}
	q1, q4 := &m.engineQ1, &m.engineQ4
	engN := fmt.Sprintf("n=%d engine.call spans", eng.Count())
	r.add("engine.call_p50_us", float64(eng.Quantile(50))/1e3, "us", engN)
	r.add("engine.call_p99_us", float64(eng.Quantile(99))/1e3, "us", engN)
	r.add("engine.call_growth", ratio(q4.Mean(), q1.Mean()), "ratio",
		fmt.Sprintf("mean of n=%d in the last quarter / n=%d in the first", q4.Count(), q1.Count()))
	r.add("engine.busy_share", float64(eng.Sum())/(secs*1e9*float64(goruntime.GOMAXPROCS(0))), "share",
		fmt.Sprintf("sum of engine.call over %.3f s x %d procs", secs, goruntime.GOMAXPROCS(0)))
	var client loadgen.Hist
	for _, s := range win.spans {
		client.Record(s.end - s.start)
	}
	r.add("server.overhead_us", (client.Mean()-eng.Mean())/1e3, "us",
		fmt.Sprintf("mean of n=%d client.call minus mean engine.call", client.Count()))
	r.add("server.calls", float64(m.atEnd.srv.Calls-m.before.srv.Calls), "count", "Server.Stats over the window")
	r.add("server.refusals", float64(m.atEnd.srv.Refusals-m.before.srv.Refusals), "count", "Server.Stats over the window")

	r.add("store.update_share", ratio(float64(m.engineUpdates), float64(len(m.engine))), "share",
		fmt.Sprintf("engine.call transactions with updates / all n=%d", len(m.engine)))
	smp := fmt.Sprintf("max of n=%d samples every %v", m.maxima.samples, samplePeriod)
	r.add("store.pending_max", float64(m.maxima.pending), "count", smp)
	rb, ra := m.before.repl, m.settled.repl
	r.add("store.wal_appends_per_sync", ratio(float64(ra.WALAppends-rb.WALAppends), float64(ra.WALSyncs-rb.WALSyncs)), "ratio",
		fmt.Sprintf("n=%d appends", ra.WALAppends-rb.WALAppends))
	r.add("store.wal_bytes_per_txn", ratio(float64(ra.WALBytes-rb.WALBytes), float64(ra.WALAppends-rb.WALAppends)), "B",
		fmt.Sprintf("n=%d appends", ra.WALAppends-rb.WALAppends))
	r.add("store.recover_ms", nsToMs(m.ver.recoverTime.Nanoseconds()), "ms", "one Recover after the run (durable only)")

	txns := fmt.Sprintf("n=%d txns in %d frames", ra.TxnsSent-rb.TxnsSent, ra.FramesSent-rb.FramesSent)
	r.add("netrepl.txns_per_frame", ratio(float64(ra.TxnsSent-rb.TxnsSent), float64(ra.FramesSent-rb.FramesSent)), "ratio", txns)
	r.add("netrepl.bytes_per_txn", ratio(float64(ra.BytesSent-rb.BytesSent), float64(ra.TxnsSent-rb.TxnsSent)), "B", txns)
	r.add("netrepl.backpressure_waits", float64(ra.BackpressureWaits-rb.BackpressureWaits), "count", "window through settle")
	r.add("netrepl.queue_depth_max", float64(m.maxima.queue), "count", smp)
	r.add("netrepl.apply_depth_max", float64(m.maxima.apply), "count", smp)
	r.add("netrepl.send_errors", float64(ra.SendErrors-rb.SendErrors), "count", "window through settle")
	r.add("netrepl.reconnects", float64(ra.Reconnects-rb.Reconnects), "count", "window through settle")
	r.add("netrepl.txns_dropped", float64(m.dropped), "count", "at cluster close")

	r.add("runtime.settle_ms", nsToMs(m.settle.Nanoseconds()), "ms", "one Settle right after the window")
	r.add("runtime.stabilize_ms", nsToMs(m.stabilize.Nanoseconds()), "ms", "one Stabilize after the settle")

	r.add("go.alloc_bytes_per_call", ratio(float64(m.atEnd.alloc-m.before.alloc), float64(win.attempted)), "B",
		fmt.Sprintf("n=%d calls, whole process", win.attempted))
	r.add("go.gc_cpu_fraction", (m.atEnd.gcCPU-m.before.gcCPU)/(secs*float64(goruntime.GOMAXPROCS(0))), "share",
		fmt.Sprintf("GC CPU over %.3f s x %d procs", secs, goruntime.GOMAXPROCS(0)))
	r.add("loadgen.late_p99_ms", nsToMs(win.late.Quantile(99)), "ms", fmt.Sprintf("n=%d open-loop sends", win.late.Count()))

	var wins []*window
	var thr []float64
	for _, b := range base {
		wins, thr = append(wins, b.win), append(thr, b.win.throughput())
	}
	bf := figuresOf(wins, w.rate > 0)
	r.add("call_p90_ms", bf.p90, "ms", "untraced windows, "+bf.calls)
	r.add("call_p99_ms", bf.p99, "ms", "untraced windows, "+bf.calls)
	r.add("visibility_p90_ms", bf.vis90, "ms", "untraced windows, "+bf.visSamples)
	r.add("visibility_p99_ms", bf.vis99, "ms", "untraced windows, "+bf.visSamples)
	att := fmt.Sprintf("n=%d calls attempted", win.attempted)
	r.add("refused_share", ratio(float64(win.refused), float64(win.attempted)), "share", att)
	r.add("error_share", ratio(float64(win.errors+win.lost), float64(win.attempted)), "share", att)
	r.add("invariant_violations", float64(len(m.ver.violations)), "count", fmt.Sprintf("(site, clause) pairs over n=%d sites, traced cluster", len(sites())))
	bt, tt := median(thr), win.throughput()
	r.add("trace.overhead_share", 1-ratio(tt, bt), "share",
		fmt.Sprintf("traced %.1f vs median untraced window %.1f calls/s", tt, bt))
}
