package crdt

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ipa/internal/clock"
)

// refAWSet is the straightforward add-wins set the flat AWSet must agree
// with: every element keeps a set of all its live add tags, so nothing a
// later add from the same origin supersedes is ever dropped.
type refAWSet struct {
	tags      map[string]eventSet
	payload   map[string]string
	graveyard map[string]string
}

func newRefAWSet() *refAWSet {
	return &refAWSet{tags: map[string]eventSet{}, payload: map[string]string{}, graveyard: map[string]string{}}
}

func (s *refAWSet) observe(obs map[string][]clock.EventID, elem string) {
	for t := range s.tags[elem] {
		obs[elem] = append(obs[elem], t)
	}
}

func (s *refAWSet) prepareRemove(elem string, tag clock.EventID) AWRemoveOp {
	obs := map[string][]clock.EventID{}
	s.observe(obs, elem)
	return AWRemoveOp{Elem: elem, Observed: obs, Tag: tag}
}

func (s *refAWSet) prepareRemoveWhere(pred Predicate, tag clock.EventID) AWRemoveOp {
	obs := map[string][]clock.EventID{}
	for elem := range s.tags {
		if pred.Matches(elem) {
			s.observe(obs, elem)
		}
	}
	return AWRemoveOp{Pred: pred, Observed: obs, Tag: tag}
}

func (s *refAWSet) apply(op Op) {
	switch o := op.(type) {
	case AWAddOp:
		if s.tags[o.Elem] == nil {
			s.tags[o.Elem] = eventSet{}
		}
		s.tags[o.Elem].add(o.Tag)
		if !o.Touch {
			s.payload[o.Elem] = o.Pay
		} else if _, live := s.payload[o.Elem]; !live {
			s.payload[o.Elem] = s.graveyard[o.Elem]
			delete(s.graveyard, o.Elem)
		}
	case AWRemoveOp:
		for elem, observed := range o.Observed {
			ts, ok := s.tags[elem]
			if !ok {
				continue
			}
			for _, t := range observed {
				delete(ts, t)
			}
			if len(ts) == 0 {
				delete(s.tags, elem)
				s.graveyard[elem] = s.payload[elem]
				delete(s.payload, elem)
			}
		}
	}
}

// folded returns the flat set holding the same live elements, payloads
// and newest tag per origin, with no graveyard.
func (s *refAWSet) folded() *AWSet {
	f := NewAWSet()
	for elem, ts := range s.tags {
		e := awElem{pay: s.payload[elem]}
		for t := range ts {
			e.addTag(t)
		}
		f.elems[elem] = e
	}
	return f
}

func (s *refAWSet) maxTag(elem string) (clock.EventID, bool) {
	var max clock.EventID
	for t := range s.tags[elem] {
		if max.Less(t) {
			max = t
		}
	}
	return max, len(s.tags[elem]) > 0
}

// awReplica holds one site's flat set and reference set side by side;
// each op is prepared against both with the same tag.
type awReplica struct {
	id   clock.ReplicaID
	flat *AWSet
	ref  *refAWSet
	vc   clock.Vector // ops applied, per origin
	log  []awLogged   // ops issued here, in order
}

type awLogged struct {
	flat, ref Op
	deps      clock.Vector // issuer's applied cut before the op
}

func (r *awReplica) apply(origin clock.ReplicaID, flat, ref Op) {
	r.flat.Apply(flat)
	r.ref.apply(ref)
	r.vc[origin]++
}

// agree checks every read the flat set offers against the reference.
func (r *awReplica) agree(elems []string) error {
	refElems := make([]string, 0, len(r.ref.tags))
	for e := range r.ref.tags {
		refElems = append(refElems, e)
	}
	sort.Strings(refElems)
	if got := r.flat.Elems(); !slices.Equal(got, refElems) || r.flat.Size() != len(refElems) {
		return fmt.Errorf("Elems = %q (size %d), reference %q", got, r.flat.Size(), refElems)
	}
	for _, e := range elems {
		if got, want := r.flat.Contains(e), len(r.ref.tags[e]) > 0; got != want {
			return fmt.Errorf("Contains(%q) = %v, reference %v", e, got, want)
		}
		gotPay, gotOK := r.flat.Payload(e)
		wantPay, wantOK := r.ref.payload[e]
		if gotPay != wantPay || gotOK != wantOK {
			return fmt.Errorf("Payload(%q) = %q, %v; reference %q, %v", e, gotPay, gotOK, wantPay, wantOK)
		}
		gotMax, gotOK := r.flat.MaxTag(e)
		wantMax, wantOK := r.ref.maxTag(e)
		if gotMax != wantMax || gotOK != wantOK {
			return fmt.Errorf("MaxTag(%q) = %v, %v; reference %v, %v", e, gotMax, gotOK, wantMax, wantOK)
		}
		if n := len(r.flat.elems[e].tags); n > 3 {
			return fmt.Errorf("%q holds %d tags from 3 origins", e, n)
		}
	}
	return nil
}

// TestAWSetFlatMatchesReference drives the flat set and the reference
// with random adds, touches, removes and wildcard removes from three
// origins. Each site receives the others' ops in a random interleaving
// that respects per-origin FIFO and causal order, as the store delivers
// them, and after every step both sets must answer every read alike.
//
// Concurrent adds of one element with different payloads leave replicas
// with different payloads in both designs (the last applied wins), so
// byte-identical final states are required of every trial only when
// each element's adds share one payload.
func TestAWSetFlatMatchesReference(t *testing.T) {
	t.Run("payloads=per-element", func(t *testing.T) {
		if n := runFlatVsReference(t, false); n != awTrials {
			t.Fatalf("%d of %d trials ended with byte-identical states", n, awTrials)
		}
	})
	t.Run("payloads=random", func(t *testing.T) {
		n := runFlatVsReference(t, true)
		t.Logf("%d of %d trials ended with byte-identical states; the rest with payloads of concurrent adds apart", n, awTrials)
	})
}

const awTrials = 300

// runFlatVsReference runs the random trials and returns how many ended
// with byte-identical states at every site.
func runFlatVsReference(t *testing.T, randomPayloads bool) (converged int) {
	var elems []string
	for _, p := range []string{"p0", "p1", "p2"} {
		for _, q := range []string{"t0", "t1"} {
			elems = append(elems, JoinTuple(p, q))
		}
	}
	preds := []Predicate{MatchPattern("", "t0"), MatchPattern("p1", ""), MatchAll{}}
	for trial := 0; trial < awTrials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		sites := make([]*awReplica, 3)
		for i := range sites {
			sites[i] = &awReplica{id: clock.ReplicaID(fmt.Sprintf("r%d", i)),
				flat: NewAWSet(), ref: newRefAWSet(), vc: clock.Vector{}}
		}
		// deliverable returns the next op from origin o that site s may
		// apply, or false.
		deliverable := func(s, o *awReplica) (awLogged, bool) {
			k := s.vc[o.id]
			if s == o || int(k) >= len(o.log) || !o.log[k].deps.LEq(s.vc) {
				return awLogged{}, false
			}
			return o.log[k], true
		}
		step := func(s *awReplica, i int) {
			if err := s.agree(elems); err != nil {
				t.Fatalf("trial %d step %d at %s: %v", trial, i, s.id, err)
			}
		}
		for i := 0; i < 120; i++ {
			s := sites[rng.Intn(len(sites))]
			if rng.Intn(2) == 0 {
				if o := sites[rng.Intn(len(sites))]; o != s {
					if m, ok := deliverable(s, o); ok {
						s.apply(o.id, m.flat, m.ref)
						step(s, i)
					}
				}
				continue
			}
			tag := clock.EventID{Replica: s.id, Seq: s.vc[s.id] + 1}
			elem := elems[rng.Intn(len(elems))]
			var flat, ref Op
			switch rng.Intn(5) {
			case 0, 1: // adds read no state: one op serves both sets
				pay := "v" + elem
				if randomPayloads {
					pay = fmt.Sprintf("v%d", rng.Intn(4))
				}
				flat = s.flat.PrepareAdd(elem, pay, tag)
				ref = flat
			case 2:
				flat = s.flat.PrepareTouch(elem, tag)
				ref = flat
			case 3:
				flat, ref = s.flat.PrepareRemove(elem, tag), s.ref.prepareRemove(elem, tag)
			case 4:
				pred := preds[rng.Intn(len(preds))]
				flat, ref = s.flat.PrepareRemoveWhere(pred, tag), s.ref.prepareRemoveWhere(pred, tag)
			}
			s.log = append(s.log, awLogged{flat: flat, ref: ref, deps: s.vc.Clone()})
			s.apply(s.id, flat, ref)
			step(s, i)
		}
		// Drain: every site applies everything, still in causal order.
		for progress := true; progress; {
			progress = false
			for _, s := range sites {
				for _, o := range sites {
					if m, ok := deliverable(s, o); ok {
						s.apply(o.id, m.flat, m.ref)
						step(s, -1)
						progress = true
					}
				}
			}
		}
		// Every remove is now stable everywhere: compaction empties the
		// graveyards, whose remove tags depend on delivery order.
		for _, s := range sites {
			s.flat.Compact(s.vc)
			if err := s.agree(elems); err != nil {
				t.Fatalf("trial %d after compaction at %s: %v", trial, s.id, err)
			}
		}
		// Each flat state is its reference's state with every origin's
		// tags folded into the newest, and all sites hold the same tags.
		// Payloads converge only where the references' do: concurrent
		// adds of one element with different payloads resolve by
		// application order in both designs.
		payloadsAgree := true
		var want []byte
		for i, s := range sites {
			got, err := AppendCRDTState(nil, s.flat)
			if err != nil {
				t.Fatal(err)
			}
			folded, _ := AppendCRDTState(nil, s.ref.folded())
			if !bytes.Equal(got, folded) {
				t.Fatalf("trial %d: %s state is not its reference's, folded", trial, s.id)
			}
			for _, e := range elems {
				if !slices.Equal(s.flat.elems[e].tags, sites[0].flat.elems[e].tags) {
					t.Fatalf("trial %d: %s holds tags %v for %q, %s holds %v", trial,
						s.id, s.flat.elems[e].tags, e, sites[0].id, sites[0].flat.elems[e].tags)
				}
				payloadsAgree = payloadsAgree && s.flat.elems[e].pay == sites[0].flat.elems[e].pay
			}
			if i == 0 {
				want = got
			} else if payloadsAgree && !bytes.Equal(got, want) {
				t.Fatalf("trial %d: %s state differs from %s", trial, s.id, sites[0].id)
			}
		}
		if payloadsAgree {
			converged++
		}
	}
	return converged
}

// Repeated touches from one origin must not grow the element's metadata:
// each supersedes the last.
func TestAWSetTouchesFromOneOriginKeepOneTag(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	for i := 0; i < 1000; i++ {
		s.Apply(s.PrepareTouch("x", g.tag("a")))
	}
	if got := s.MetadataSize(); got != 1 {
		t.Fatalf("MetadataSize = %d after 1000 touches from one origin, want 1", got)
	}
}

// A prepared remove keeps the tags it observed even when a later add
// rewrites the element's tags in place before the remove is applied or
// shipped.
func TestAWSetPrepareRemoveCopiesTags(t *testing.T) {
	s := NewAWSet()
	s.Apply(s.PrepareAdd("x", "", clock.EventID{Replica: "a", Seq: 1}))
	rm := s.PrepareRemove("x", clock.EventID{Replica: "b", Seq: 1})
	where := s.PrepareRemoveWhere(MatchAll{}, clock.EventID{Replica: "b", Seq: 2})
	s.Apply(s.PrepareTouch("x", clock.EventID{Replica: "a", Seq: 2}))
	want := []clock.EventID{{Replica: "a", Seq: 1}}
	if !slices.Equal(rm.Observed["x"], want) || !slices.Equal(where.Observed["x"], want) {
		t.Fatalf("observed = %v and %v, want %v", rm.Observed["x"], where.Observed["x"], want)
	}
}
