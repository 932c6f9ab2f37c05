package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ipa/internal/analysis"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/twitter"
	"ipa/internal/clock"
	"ipa/internal/loadgen"
	"ipa/internal/spec"
)

// contract is the part of BENCHMARK.json the benchmark must honour: the
// metric names and units each mode prints.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// quick runs a workload with a short window and a single setup.
func quick(t *testing.T, name string, trace bool) *result {
	t.Helper()
	res, err := run(options{
		workload: name, seed: 7, seconds: 0.5, trace: trace, workdir: t.TempDir(), setups: 1,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	return res
}

// TestQuickAllWorkloads runs every workload in both modes and checks
// that each mode's JSON carries exactly its metrics from BENCHMARK.json,
// with their units, and that the listing prints every end-to-end metric
// the README names with its unit and sample count.
func TestQuickAllWorkloads(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				}
				res := quick(t, w.name, trace)
				if !res.report.Correct || res.report.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d", trace, res.report.Correct, res.report.Attempted)
				}
				if len(res.report.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics in the JSON, BENCHMARK.json lists %d", trace, len(res.report.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.report.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s: got %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
					}
				}
				listing := strings.Join(res.lines, "\n")
				for _, m := range append(c.EndToEnd, listedOnly...) {
					if !listed(listing, m.Name, m.Unit) {
						t.Errorf("trace=%v: listing lacks %s with unit %s", trace, m.Name, m.Unit)
					}
				}
			}
		})
	}
}

// listedOnly are the end-to-end metrics that cannot carry a bound (the
// tails swing from run to run, the rest are zero on some workloads by
// design), so they are listed in every run but carried in the JSON of
// the traced run only.
var listedOnly = []struct{ Name, Unit string }{
	{"call_p90_ms", "ms"}, {"call_p99_ms", "ms"}, {"visibility_p90_ms", "ms"}, {"visibility_p99_ms", "ms"},
	{"refused_share", "share"}, {"error_share", "share"}, {"invariant_violations", "count"},
}

func listed(listing, name, unit string) bool {
	for _, l := range strings.Split(listing, "\n") {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == name && f[2] == unit && strings.Contains(l, "n=") {
			return true
		}
	}
	return false
}

// TestRunFailsOnErrorReply serves a mix with an operation the spec does
// not define, so some CALLs of the window get an error reply: the run
// must fail rather than report metrics.
func TestRunFailsOnErrorReply(t *testing.T) {
	w, err := findWorkload("ticket-memory")
	if err != nil {
		t.Fatal(err)
	}
	w.name = "ticket-unknown-op"
	w.mix = append(slices.Clone(w.mix), loadgen.MixEntry{Op: "no_such_op", Weight: 1, Args: [][]string{{"k0"}}})
	saved := workloads
	workloads = append(slices.Clone(workloads), w)
	defer func() { workloads = saved }()
	res, err := run(options{workload: w.name, seed: 7, seconds: 0.2, workdir: t.TempDir(), setups: 1})
	if err == nil {
		t.Fatalf("run with error replies reported a result: %+v", res.report)
	}
	if !strings.Contains(err.Error(), "error replies") {
		t.Errorf("failure %q does not name the error replies", err)
	}
	t.Logf("rejected as expected: %v", err)
}

// TestVerifyRejectsDivergentSites keeps one site paused through the
// verification: the run must fail rather than report metrics.
func TestVerifyRejectsDivergentSites(t *testing.T) {
	w, err := findWorkload("ticket-memory")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup(w, setupOptions{workdir: t.TempDir(), settleTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	paused := e.sites[len(e.sites)-1]
	e.nc.SetPaused(paused, true)
	e.runWindow(200*time.Millisecond, 1, nil, 0)
	_, verr := e.verify(nil, 0)
	e.nc.SetPaused(paused, false)
	if cerr := e.close(); cerr != nil {
		t.Error(cerr)
	}
	if verr == nil {
		t.Fatal("verify accepted a run with a site paused through verification")
	}
	t.Logf("rejected as expected: %v", verr)
}

// TestConvergedRejectsDigestMismatch covers the digest comparison on
// its own: sites that settle but hold different state must fail.
func TestConvergedRejectsDigestMismatch(t *testing.T) {
	ids := sites()
	same := map[clock.ReplicaID]string{}
	for _, id := range ids {
		same[id] = "a(1) b(2)"
	}
	if err := converged(same, ids); err != nil {
		t.Fatalf("identical digests rejected: %v", err)
	}
	diff := map[clock.ReplicaID]string{ids[0]: "a(1) b(2)", ids[1]: "a(1) b(2)", ids[2]: "a(1) c(3)"}
	err := converged(diff, ids)
	if err == nil {
		t.Fatal("divergent digests accepted")
	}
	if want := "lacks [b(2)] and adds [c(3)]"; !strings.Contains(err.Error(), want) {
		t.Errorf("divergence report %q does not say %q", err, want)
	}
	delete(same, ids[1])
	if err := converged(same, ids); err == nil {
		t.Fatal("a missing site's digest accepted")
	}
}

// TestChoosersMatchBundledAnalyses pins the benchmark's copies of the
// recorded repair choices to the bundled applications' analyses.
func TestChoosersMatchBundledAnalyses(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bundled func() *analysis.Result
	}{
		{"tournament-contended", tournament.Analysis},
		{"twitter-open", twitter.Analysis},
	} {
		w, err := findWorkload(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Parse(w.src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := analysis.Run(sp, w.opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.bundled(); got.Spec.String() != want.Spec.String() {
			t.Errorf("%s: analysis differs from the bundled one:\n%s\nwant:\n%s", tc.name, got.Summary(), want.Summary())
		}
	}
}
