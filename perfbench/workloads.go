package main

import (
	"fmt"

	"ipa/internal/analysis"
	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/twitter"
	"ipa/internal/loadgen"
	"ipa/internal/logic"
	"ipa/internal/spec"
)

// workload is one traffic mix the benchmark serves. README.md gives the
// reason each one exists and what it is sized to expose.
type workload struct {
	name string
	// src is the specification source the setup parses and analyzes.
	src string
	// opts are the analysis options: the repair choices a programmer
	// recorded for the application (analysis.Options.Chooser).
	opts analysis.Options
	// mix is the weighted operation mix the load connections draw from.
	mix []loadgen.MixEntry
	// seed are the calls every setup issues before the window (over the
	// wire, at the first site, then SETTLE).
	seed [][]string
	// rate is the open loop's fleet-wide arrival rate in calls/s; zero
	// selects the closed loop of conns × pipeline.
	rate float64
	// perSecond sizes a closed loop's window: it serves perSecond calls
	// for every second of --seconds, about what the code this benchmark
	// was written against completes in that time. A window of fixed work
	// keeps the state the calls build, and so the heap, the same however
	// fast the program serves them.
	perSecond int
	// durable gives every site a write-ahead log (fsync before ack).
	durable bool
}

const (
	// conns is the number of load connections: one per CPU of the
	// 2-CPU host the sizes below were chosen on.
	conns = 2
	// pipeline is the closed loop's depth per connection.
	pipeline = 8
)

var workloads = []workload{tournamentContended(), twitterOpen(), ticketWorkload("ticket-memory", false, 50000), ticketWorkload("ticket-durable", true, 8000)}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func pool(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// tournamentContended is loadgen's tournament mix with the enrolment and
// match pool widened to 16 players for the spec's 8 seats per
// tournament, all 16 seeded. Living over Capacity is deliberate: it is
// the regime where trim-excess compensations fire.
func tournamentContended() workload {
	mix, seedCalls := loadgen.TournamentWorkload()
	players := pool("p", 16)
	for i := range mix {
		switch mix[i].Op {
		case "enroll", "disenroll":
			mix[i].Args[0] = players
		case "do_match":
			mix[i].Args[0], mix[i].Args[1] = players, players
		}
	}
	var seed [][]string
	for _, p := range players {
		seed = append(seed, []string{"add_player", p})
	}
	for _, c := range seedCalls {
		if c[0] != "add_player" {
			seed = append(seed, c)
		}
	}
	return workload{
		name:      "tournament-contended",
		src:       tournament.SpecSource,
		opts:      analysis.Options{Chooser: fig3Chooser},
		mix:       mix,
		seed:      seed,
		perSecond: 4500,
	}
}

// twitterOpen serves independent users at a fixed arrival rate over a
// wide keyspace: 1,000 seeded users, 100k tweet ids.
func twitterOpen() workload {
	users, tweets := pool("u", 1000), pool("w", 100000)
	var seed [][]string
	for _, u := range users {
		seed = append(seed, []string{"add_user", u})
	}
	return workload{
		name: "twitter-open",
		src:  twitter.SpecSource,
		opts: analysis.Options{Chooser: remWinsChooser},
		mix: []loadgen.MixEntry{
			{Op: "tweet", Weight: 40, Args: [][]string{tweets, users}},
			{Op: "retweet", Weight: 30, Args: [][]string{tweets, users}},
			{Op: "follow", Weight: 20, Args: [][]string{users, users}},
			{Op: "unfollow", Weight: 5, Args: [][]string{users, users}},
			{Op: "del_tweet", Weight: 5, Args: [][]string{tweets}},
		},
		seed: seed,
		rate: 300,
	}
}

// ticketWorkload sells 4,096 ticket ids across 64 events of capacity
// 100, so events oversell and capacity compensations fire.
func ticketWorkload(name string, durable bool, perSecond int) workload {
	events, tickets := pool("e", 64), pool("k", 4096)
	var seed [][]string
	for _, e := range events {
		seed = append(seed, []string{"add_event", e})
	}
	return workload{
		name: name,
		src:  ticket.SpecSource,
		mix: []loadgen.MixEntry{
			{Op: "buy", Weight: 70, Args: [][]string{tickets, events}},
			{Op: "refund", Weight: 30, Args: [][]string{tickets, events}},
		},
		seed:      seed,
		durable:   durable,
		perSecond: perSecond,
	}
}

// The two choosers below record the programmer's repair choices that
// tournament.Analysis and twitter.Analysis make (those functions cache
// their result, and the benchmark must time the analysis in every
// setup). TestChoosersMatchBundledAnalyses pins them to the bundled
// results.

// fig3Chooser picks, for disenroll ∥ do_match, the repair that adds the
// two one-wildcard match wipes to disenroll (paper Fig. 3); every other
// conflict takes the default minimal repair.
func fig3Chooser(c *analysis.Conflict, reps []analysis.Repair) int {
	if !conflictOf(c, "disenroll", "do_match") {
		return 0
	}
	for i, r := range reps {
		if r.Target != "disenroll" || len(r.Extra) != 2 {
			continue
		}
		ok := true
		for _, e := range r.Extra {
			if e.Kind != spec.BoolAssign || e.Val || e.Pred != "inMatch" || wildcards(e.Args) != 1 {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return 0
}

// remWinsChooser makes deletions win (paper Fig. 6, rem-wins): the
// falsifying repair with the fewest wildcards, and for rem_user ∥
// follow the two-effect pair wipe.
func remWinsChooser(c *analysis.Conflict, reps []analysis.Repair) int {
	if conflictOf(c, "rem_user", "follow") {
		for i, r := range reps {
			if ok, _ := allFalsify(r); ok && r.Target == "rem_user" && len(r.Extra) == 2 {
				return i
			}
		}
		return 0
	}
	best, bestWilds := 0, int(^uint(0)>>1)
	for i, r := range reps {
		if ok, wilds := allFalsify(r); ok && wilds < bestWilds {
			best, bestWilds = i, wilds
		}
	}
	return best
}

func conflictOf(c *analysis.Conflict, a, b string) bool {
	return (c.Op1.Name == a && c.Op2.Name == b) || (c.Op1.Name == b && c.Op2.Name == a)
}

func wildcards(args []logic.Term) int {
	n := 0
	for _, t := range args {
		if t.Kind == logic.TermWildcard {
			n++
		}
	}
	return n
}

// allFalsify reports whether every extra effect of the repair is a
// boolean falsification, and how many wildcard arguments they carry.
func allFalsify(r analysis.Repair) (bool, int) {
	if len(r.Extra) == 0 {
		return false, 0
	}
	wilds := 0
	for _, e := range r.Extra {
		if e.Kind != spec.BoolAssign || e.Val {
			return false, 0
		}
		wilds += wildcards(e.Args)
	}
	return true, wilds
}
