// Command perfbench is the repository benchmark: it serves one workload
// from a self-hosted 3-site netrepl cluster behind the RESP server, drives
// it over loopback with the workload's load connections, verifies the
// cluster afterwards, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload ticket-memory --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 adds a traced window
// on a fresh cluster and prints the per-layer metrics. The last line of
// standard output is one JSON object; the lines before it repeat every
// metric with its sample count. README.md documents the workloads and
// the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"

	"ipa/internal/loadgen"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workdir holds durable sites' data and the span files.
	workdir string
	// setups is how many times the run sets the workload up; setup_s is
	// their median, and each serves one window of 1/setups of the work.
	setups int
}

func main() {
	o := options{workdir: ".bench_build", setups: 5}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: tournament-contended, twitter-open, ticket-memory or ticket-durable")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated call stream derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of measured work, split over the run's windows (closed loops serve a fixed number of calls per second)")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced window and prints the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	report report
	// lines is the human-readable listing: every metric with its unit
	// and sample count, plus the run's facts.
	lines []string
}

// add puts a metric in this mode's JSON and in the listing.
func (r *result) add(name string, value float64, unit, samples string) {
	r.report.Metrics[name] = metric{Value: value, Unit: unit}
	r.note(name, value, unit, samples)
}

// note adds a metric to the listing only: it is printed with its unit
// and sample count but is not part of this mode's JSON metrics.
func (r *result) note(name string, value float64, unit, samples string) {
	r.lines = append(r.lines, fmt.Sprintf("%-28s %14.6g %-6s (%s)", name, value, unit, samples))
}

func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds * float64(time.Second))
	res := &result{report: report{Metrics: map[string]metric{}}}
	host := hostFacts()
	res.lines = append(res.lines, fmt.Sprintf("workload %s seed %d window %v trace %v; %s", w.name, o.seed, d, o.trace, host))

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	so := setupOptions{workdir: o.workdir, tr: tr}
	// Every setup serves a window of an equal share of the run's work on
	// its fresh cluster, so the figures are medians over windows spread
	// across the whole run rather than one stretch of the host's load.
	n := max(o.setups, 1)
	share := d / time.Duration(n)
	seeds := rand.New(rand.NewSource(o.seed))
	var stages []stageTimes
	var base []*measured
	for i := 0; i < n; i++ {
		// Collect what the last window left behind, so every setup starts
		// from the same heap.
		goruntime.GC()
		e, err := setup(w, so)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		stages = append(stages, e.times)
		m, err := measure(e, share, seeds.Int63())
		if err != nil {
			return nil, err
		}
		if err := m.win.failure(); err != nil {
			return nil, err
		}
		base = append(base, m)
		res.report.Attempted += m.win.attempted
	}
	// Every check passed: a run that fails one ends above with no result.
	res.report.Correct = true
	res.endToEnd(w, base, stages, !o.trace)

	if o.trace {
		so.traced = true
		goruntime.GC()
		te, err := setup(w, so)
		if err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		stages = append(stages, te.times)
		traced, err := measureTraced(te, share, seeds.Int63(), tr)
		if err != nil {
			return nil, err
		}
		if err := traced.win.failure(); err != nil {
			return nil, fmt.Errorf("traced window: %w", err)
		}
		res.report.Attempted += traced.win.attempted
		res.perLayer(w, base, traced, stages)
		path := filepath.Join(o.workdir, "trace-"+w.name+".tsv")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		res.lines = append(res.lines, fmt.Sprintf("spans written to %s", path))
	}
	return res, nil
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stageMedian is the median of one setup stage across setups, seconds.
func stageMedian(stages []stageTimes, f func(stageTimes) time.Duration) float64 {
	xs := make([]float64, len(stages))
	for i, st := range stages {
		xs[i] = f(st).Seconds()
	}
	return median(xs)
}

// hostFacts names what the figures depend on about the host.
func hostFacts() string {
	h := loadgen.Host()
	return fmt.Sprintf("host %s %s/%s nproc %d GOMAXPROCS %d", h.GoVersion, h.OS, h.Arch, h.NumCPU, h.GOMAXPROCS)
}
