package crdt

import (
	"math/rand"
	"testing"

	"ipa/internal/clock"
)

// tagger hands out unique event IDs per replica.
type tagger struct {
	vc clock.Vector
}

func newTagger() *tagger { return &tagger{vc: clock.New()} }

func (t *tagger) tag(r clock.ReplicaID) clock.EventID { return t.vc.Tick(r) }

func TestAWSetAddRemove(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	add := s.PrepareAdd("x", "payload", g.tag("a"))
	s.Apply(add)
	if !s.Contains("x") || s.Size() != 1 {
		t.Fatal("x should be present")
	}
	if p, ok := s.Payload("x"); !ok || p != "payload" {
		t.Fatalf("payload = %q, %v", p, ok)
	}
	rm := s.PrepareRemove("x", g.tag("a"))
	s.Apply(rm)
	if s.Contains("x") || s.Size() != 0 {
		t.Fatal("x should be removed")
	}
	if _, ok := s.Payload("x"); ok {
		t.Fatal("payload should be gone")
	}
}

func TestAWSetAddWinsOverConcurrentRemove(t *testing.T) {
	g := newTagger()
	// Two replicas of the same object.
	a, b := NewAWSet(), NewAWSet()
	add := a.PrepareAdd("x", "", g.tag("a"))
	a.Apply(add)
	b.Apply(add)

	// Concurrently: replica a removes x, replica b adds x again.
	rm := a.PrepareRemove("x", g.tag("a"))
	add2 := b.PrepareAdd("x", "", g.tag("b"))
	a.Apply(rm)
	b.Apply(add2)
	// Cross-deliver.
	a.Apply(add2)
	b.Apply(rm)

	if !a.Contains("x") || !b.Contains("x") {
		t.Fatal("concurrent add must win on both replicas")
	}
	if a.Size() != b.Size() {
		t.Fatal("replicas diverged")
	}
}

func TestAWSetRemoveOnlyCancelsObserved(t *testing.T) {
	g := newTagger()
	a, b := NewAWSet(), NewAWSet()
	add1 := a.PrepareAdd("x", "", g.tag("a"))
	a.Apply(add1) // b has NOT seen add1

	rmEmpty := b.PrepareRemove("x", g.tag("b")) // observes nothing
	b.Apply(rmEmpty)
	a.Apply(rmEmpty)
	b.Apply(add1)

	if !a.Contains("x") || !b.Contains("x") {
		t.Fatal("a remove that observed nothing must not cancel unseen adds")
	}
}

func TestAWSetWildcardRemove(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	s.Apply(s.PrepareAdd(JoinTuple("p1", "t1"), "", g.tag("a")))
	s.Apply(s.PrepareAdd(JoinTuple("p2", "t1"), "", g.tag("a")))
	s.Apply(s.PrepareAdd(JoinTuple("p1", "t2"), "", g.tag("a")))

	rm := s.PrepareRemoveWhere(Match{Index: 1, Value: "t1"}, g.tag("a"))
	s.Apply(rm)
	if s.Contains(JoinTuple("p1", "t1")) || s.Contains(JoinTuple("p2", "t1")) {
		t.Fatal("t1 pairs should be removed")
	}
	if !s.Contains(JoinTuple("p1", "t2")) {
		t.Fatal("t2 pair should survive")
	}
	if got := s.ElemsWhere(Match{Index: 0, Value: "p1"}); len(got) != 1 {
		t.Fatalf("ElemsWhere = %v", got)
	}
}

func TestAWSetTouchPreservesPayload(t *testing.T) {
	g := newTagger()
	a, b := NewAWSet(), NewAWSet()
	add := a.PrepareAdd("u", "profile-data", g.tag("a"))
	a.Apply(add)
	b.Apply(add)

	// Concurrently: a removes u; b touches u (e.g. enroll restores player).
	rm := a.PrepareRemove("u", g.tag("a"))
	touch := b.PrepareTouch("u", g.tag("b"))
	a.Apply(rm)
	a.Apply(touch)
	b.Apply(touch)
	b.Apply(rm)

	for name, s := range map[string]*AWSet{"a": a, "b": b} {
		if !s.Contains("u") {
			t.Fatalf("replica %s: touch must win", name)
		}
		if p, _ := s.Payload("u"); p != "profile-data" {
			t.Fatalf("replica %s: payload lost: %q", name, p)
		}
	}
}

func TestAWSetCompactDropsStableGraveyard(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	s.Apply(s.PrepareAdd("u", "data", g.tag("a")))
	rm := s.PrepareRemove("u", g.tag("a"))
	s.Apply(rm)
	if len(s.graveyard) != 1 {
		t.Fatal("payload should be in graveyard")
	}
	// Horizon below the remove: graveyard kept.
	s.Compact(clock.Vector{"a": 1})
	if len(s.graveyard) != 1 {
		t.Fatal("graveyard dropped too early")
	}
	s.Compact(clock.Vector{"a": 2})
	if len(s.graveyard) != 0 {
		t.Fatal("stable graveyard entry should be dropped")
	}
}

func TestAWSetMaxTag(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	t1 := g.tag("a")
	t2 := g.tag("b")
	s.Apply(AWAddOp{Elem: "x", Tag: t2})
	s.Apply(AWAddOp{Elem: "x", Tag: t1})
	if max, ok := s.MaxTag("x"); !ok || max != t2 {
		t.Fatalf("MaxTag = %v, %v", max, ok)
	}
	if _, ok := s.MaxTag("absent"); ok {
		t.Fatal("MaxTag on absent element")
	}
}

// Concurrent operations prepared against the same observed state must
// commute: applying them in any order yields the same set.
func TestAWSetConcurrentOpsCommute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	elems := []string{"a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		g := newTagger()
		base := NewAWSet()
		// Seed state, fully replicated.
		var seed []Op
		for _, e := range elems {
			if rng.Intn(2) == 0 {
				op := base.PrepareAdd(e, "", g.tag("seed"))
				base.Apply(op)
				seed = append(seed, op)
			}
		}
		// Concurrent ops from distinct replicas, all prepared against base.
		var ops []Op
		for i := 0; i < 4; i++ {
			r := clock.ReplicaID(rune('a' + i))
			e := elems[rng.Intn(len(elems))]
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, base.PrepareAdd(e, "", g.tag(r)))
			case 1:
				ops = append(ops, base.PrepareRemove(e, g.tag(r)))
			case 2:
				ops = append(ops, base.PrepareTouch(e, g.tag(r)))
			}
		}
		apply := func(order []int) []string {
			s := NewAWSet()
			for _, op := range seed {
				s.Apply(op)
			}
			for _, i := range order {
				s.Apply(ops[i])
			}
			return s.Elems()
		}
		order := rng.Perm(len(ops))
		ref := apply([]int{0, 1, 2, 3})
		got := apply(order)
		if len(ref) != len(got) {
			t.Fatalf("trial %d: diverged: %v vs %v (order %v)", trial, ref, got, order)
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("trial %d: diverged: %v vs %v", trial, ref, got)
			}
		}
	}
}
