package main

import (
	"fmt"
	"os"
	"time"

	"ipa/internal/analysis"
	"ipa/internal/clock"
	"ipa/internal/netrepl"
	"ipa/internal/runtime"
	"ipa/internal/server"
	"ipa/internal/spec"
	"ipa/internal/wan"
)

// env is one served cluster, ready for a measurement window: a 3-site
// netrepl cluster behind server.New on loopback, the workload's spec
// mounted and seeded, and the load connections dialed and pinned.
type env struct {
	w       workload
	nc      *runtime.NetCluster
	srv     *server.Server
	app     string
	sites   []clock.ReplicaID
	nodes   map[clock.ReplicaID]*netrepl.Node
	ctl     *server.Client
	load    []*loadConn
	dataDir string
	// engine collects engine.call spans when the cluster is traced.
	engine *engineSpans
	times  stageTimes
}

// stageTimes are one setup's stage durations and its whole.
type stageTimes struct {
	clusterUp, parse, analyze, compile, seed, total time.Duration
}

// loadConn is one load connection, pinned to a site.
type loadConn struct {
	cli  *server.Client
	site clock.ReplicaID
}

type setupOptions struct {
	workdir string
	// settleTimeout bounds each Settle; zero takes netrepl's default.
	settleTimeout time.Duration
	tr            *tracer
	// traced hands the server a cluster wrapper that records engine.call
	// spans (see tracedCluster).
	traced bool
}

// setup builds an env, timing every stage. The returned env owns the
// cluster, the server, its connections and the data directory.
func setup(w workload, o setupOptions) (e *env, err error) {
	start := time.Now()
	root := o.tr.reserve()
	stage := func(name string, d *time.Duration, fn func() error) error {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		*d = t1.Sub(t0)
		o.tr.record(name, root, t0, t1)
		return err
	}
	e = &env{w: w, sites: sites()}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	cfg := runtime.NetConfig{SettleTimeout: o.settleTimeout}
	if w.durable {
		if e.dataDir, err = os.MkdirTemp(o.workdir, "durable-"); err != nil {
			return e, err
		}
		cfg.DataDir = e.dataDir
	}
	if err = stage("setup.cluster_up", &e.times.clusterUp, func() (err error) {
		e.nc, err = runtime.NewNetCluster(e.sites, cfg)
		return err
	}); err != nil {
		return e, err
	}
	e.nodes = map[clock.ReplicaID]*netrepl.Node{}
	for _, id := range e.sites {
		e.nodes[id] = e.nc.Node(id)
	}
	var cluster runtime.Cluster = e.nc
	if o.traced {
		e.engine = &engineSpans{tr: o.tr}
		cluster = &tracedCluster{Cluster: e.nc, spans: e.engine}
	}
	e.srv = server.New(cluster, server.Config{})
	var sp *spec.Spec
	if err = stage("setup.parse", &e.times.parse, func() (err error) {
		sp, err = spec.Parse(w.src)
		return err
	}); err != nil {
		return e, err
	}
	var res *analysis.Result
	if err = stage("setup.analysis", &e.times.analyze, func() (err error) {
		res, err = analysis.Run(sp, w.opts)
		return err
	}); err != nil {
		return e, err
	}
	if err = stage("setup.compile", &e.times.compile, func() (err error) {
		e.app, err = e.srv.MountAnalyzed(sp, res)
		return err
	}); err != nil {
		return e, err
	}
	if err = e.srv.Start("127.0.0.1:0"); err != nil {
		return e, err
	}
	if e.ctl, err = server.Dial(e.srv.Addr(), 5*time.Second); err != nil {
		return e, err
	}
	if err = stage("setup.seed", &e.times.seed, func() error { return e.seedCalls() }); err != nil {
		return e, err
	}
	for i := 0; i < conns; i++ {
		cli, err := server.Dial(e.srv.Addr(), 5*time.Second)
		if err != nil {
			return e, err
		}
		lc := &loadConn{cli: cli, site: e.sites[i%len(e.sites)]}
		e.load = append(e.load, lc)
		if err := cli.DoOK("SITE", string(lc.site)); err != nil {
			return e, err
		}
		if err := cli.DoOK("CLIENT", "SETNAME", fmt.Sprintf("loadgen-perfbench-%d", i)); err != nil {
			return e, err
		}
	}
	end := time.Now()
	e.times.total = end.Sub(start)
	o.tr.recordAs("setup", root, 0, start, end)
	return e, nil
}

func sites() []clock.ReplicaID {
	var ids []clock.ReplicaID
	for _, s := range wan.Sites() {
		ids = append(ids, clock.ReplicaID(s))
	}
	return ids
}

// seedCalls issues the workload's seed calls, pipelined, and settles.
// Every seed call must succeed.
func (e *env) seedCalls() error {
	const batch = 256
	for i := 0; i < len(e.w.seed); i += batch {
		calls := e.w.seed[i:min(i+batch, len(e.w.seed))]
		for _, c := range calls {
			e.ctl.Send(append([]string{"CALL", e.app}, c...)...)
		}
		if err := e.ctl.Flush(); err != nil {
			return err
		}
		for _, c := range calls {
			rp, err := e.ctl.Recv()
			if err != nil {
				return err
			}
			if err := rp.Err(); err != nil {
				return fmt.Errorf("seed %v: %w", c, err)
			}
		}
	}
	return e.ctl.DoOK("SETTLE")
}

// close tears the env down: connections, server drain, cluster, data.
func (e *env) close() error {
	var errs []error
	for _, lc := range e.load {
		lc.cli.Close()
	}
	if e.ctl != nil {
		e.ctl.Close()
	}
	if e.srv != nil {
		if err := e.srv.Shutdown(); err != nil {
			errs = append(errs, err)
		}
	}
	if e.nc != nil {
		if err := e.nc.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if e.dataDir != "" {
		if err := os.RemoveAll(e.dataDir); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("teardown: %v", errs)
	}
	return nil
}
