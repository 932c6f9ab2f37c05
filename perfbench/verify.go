package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ipa/internal/clock"
	"ipa/internal/runtime"
	"ipa/internal/server"
)

// verification is what the post-run checks found.
type verification struct {
	// violations are the (site, clause) pairs CHECK reports once
	// replication settled and the read-repairs ran.
	violations []string
	// recoverTime is the Recover of one crashed site (durable only).
	recoverTime time.Duration
}

// verify runs bench.VerifyOverWire's steps over the control connection
// (settle, two rounds of repair + settle, stabilize, CHECK, DIGEST),
// except that CHECK violations are counted instead of failing: they are
// a measured outcome. Any error reply, and any digest divergence between
// sites, fails the run. On a durable cluster one site then crashes and
// recovers, and must come back with its pre-crash digest.
func (e *env) verify(tr *tracer, parent int64) (*verification, error) {
	v := &verification{}
	for _, args := range [][]string{{"SETTLE"}, {"REPAIR", e.app}, {"SETTLE"}, {"REPAIR", e.app}, {"SETTLE"}, {"STABILIZE"}} {
		if _, err := e.do(tr, parent, args...); err != nil {
			return nil, err
		}
	}
	rp, err := e.do(tr, parent, "CHECK", e.app)
	if err != nil {
		return nil, err
	}
	for _, s := range rp.Strings() {
		if strings.Contains(s, "cannot evaluate") {
			return nil, fmt.Errorf("verify: CHECK could not evaluate a clause: %s", s)
		}
	}
	v.violations = rp.Strings()
	digests, err := e.digests(tr, parent)
	if err != nil {
		return nil, err
	}
	if err := converged(digests, e.sites); err != nil {
		return nil, err
	}
	if e.w.durable {
		if v.recoverTime, err = e.crashRecover(digests, tr, parent); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// do runs one control command as a verify.<command> span; an error
// reply is an error.
func (e *env) do(tr *tracer, parent int64, args ...string) (server.Reply, error) {
	t0 := time.Now()
	rp, err := e.ctl.Do(args...)
	tr.record("verify."+strings.ToLower(args[0]), parent, t0, time.Now())
	if err == nil {
		err = rp.Err()
	}
	if err != nil {
		return rp, fmt.Errorf("verify: %s: %w", strings.Join(args, " "), err)
	}
	return rp, nil
}

// digests reads every site's digest.
func (e *env) digests(tr *tracer, parent int64) (map[clock.ReplicaID]string, error) {
	rp, err := e.do(tr, parent, "DIGEST", e.app)
	if err != nil {
		return nil, err
	}
	out := map[clock.ReplicaID]string{}
	for _, line := range rp.Strings() {
		site, body, _ := strings.Cut(line, " ")
		out[clock.ReplicaID(site)] = body
	}
	return out, nil
}

// converged fails unless every site reported the same digest. The error
// names, per site, the digest atoms it lacks or adds against the first
// site's.
func converged(digests map[clock.ReplicaID]string, sites []clock.ReplicaID) error {
	base, ok := digests[sites[0]]
	var diffs []string
	for _, id := range sites[1:] {
		d, has := digests[id]
		switch {
		case !ok || !has:
			diffs = append(diffs, fmt.Sprintf("%s: no digest", id))
		case d != base:
			lacks, adds := atomDiff(strings.Fields(base), strings.Fields(d))
			diffs = append(diffs, fmt.Sprintf("%s lacks %v and adds %v against %s", id, lacks, adds, sites[0]))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("verify: sites diverged after the run:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}

// atomDiff returns the atoms of a missing from b and those b adds.
func atomDiff(a, b []string) (missing, extra []string) {
	in := map[string]int{}
	for _, x := range a {
		in[x]++
	}
	for _, x := range b {
		in[x]--
	}
	for x, n := range in {
		if n > 0 {
			missing = append(missing, x)
		} else if n < 0 {
			extra = append(extra, x)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return missing, extra
}

// crashRecover kills the last site without a flush, recovers it from its
// write-ahead log and snapshots, and requires the recovered digest to
// equal the pre-crash one. It returns the Recover time.
func (e *env) crashRecover(before map[clock.ReplicaID]string, tr *tracer, parent int64) (time.Duration, error) {
	var lc runtime.Lifecycle = e.nc
	id := e.sites[len(e.sites)-1]
	t0 := time.Now()
	if err := lc.Crash(id); err != nil {
		return 0, err
	}
	t1 := time.Now()
	if err := lc.Recover(id); err != nil {
		return 0, err
	}
	t2 := time.Now()
	tr.record("verify.crash", parent, t0, t1)
	tr.record("store.recover", parent, t1, t2)
	e.nodes[id] = e.nc.Node(id)
	after, err := e.digests(tr, parent)
	if err != nil {
		return 0, err
	}
	if after[id] != before[id] {
		return 0, fmt.Errorf("verify: %s recovered to a different state:\n  before %q\n  after  %q", id, before[id], after[id])
	}
	return t2.Sub(t1), nil
}
