package crdt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ipa/internal/clock"
)

// sampleStates returns one populated object of every CRDT kind.
func sampleStates() []CRDT {
	g := newTagger()
	aw := NewAWSet()
	aw.Apply(aw.PrepareAdd("x", "px", g.tag("a")))
	aw.Apply(aw.PrepareAdd("x", "px", g.tag("b")))
	aw.Apply(aw.PrepareAdd("y", "py", g.tag("a")))
	aw.Apply(aw.PrepareRemove("y", g.tag("b")))

	rw := NewRWSet()
	rw.Apply(rw.PrepareAdd(JoinTuple("p", "t"), "pay", g.tag("a")))
	rw.Apply(rw.PrepareAdd(JoinTuple("q", "t"), "", g.tag("b")))
	rw.Apply(rw.PrepareRemove(JoinTuple("q", "t"), g.tag("a")))
	rw.Apply(rw.PrepareRemoveWhere(MatchPattern("", "u"), g.tag("b")))

	pn := NewPNCounter()
	pn.Apply(pn.PrepareAdd(3, g.tag("a")))
	pn.Apply(pn.PrepareAdd(-1, g.tag("b")))

	bc := NewBoundedCounter(map[clock.ReplicaID]int64{"a": 5, "b": 2})
	if op, ok := bc.PrepareConsume("a", 2, g.tag("a")); ok {
		bc.Apply(op)
	}

	lww := NewLWWRegister()
	lww.Apply(lww.PrepareSet("v", 7, g.tag("a")))

	mv := NewMVRegister()
	mv.Apply(mv.PrepareSet("v1", g.tag("a")))
	mv.Apply(MVSetOp{Value: "v2", Tag: g.tag("b")})

	cs := NewCompSet(1)
	cs.Apply(cs.PrepareAdd("e1", "", g.tag("a")))
	cs.Apply(cs.PrepareAdd("e2", "", g.tag("b")))

	return []CRDT{aw, rw, pn, bc, lww, mv, cs}
}

// awSetState hand-encodes an aw-set state whose live elements each carry
// the given tags, with an empty graveyard.
func awSetState(elems []string, tags [][]clock.EventID) []byte {
	b := binary.AppendUvarint([]byte{stateKindAWSet}, uint64(len(elems)))
	for i, e := range elems {
		b = AppendWireString(b, e)
		b = appendEventIDs(b, tags[i])
		b = AppendWireString(b, "")
	}
	return binary.AppendUvarint(b, 0)
}

var (
	// An element with no add tags: Size would count it, Contains not.
	awStateNoTags = awSetState([]string{"x"}, [][]clock.EventID{nil})
	// An element listed twice: the second would silently replace the first.
	awStateRepeated = awSetState([]string{"x", "x"},
		[][]clock.EventID{{{Replica: "a", Seq: 1}}, {{Replica: "b", Seq: 1}}})
	// A graveyard entry listed twice.
	awStateBuriedTwice = func() []byte {
		b := []byte{stateKindAWSet, 0, 2}
		for i := 0; i < 2; i++ {
			b = AppendWireString(b, "x")
			b = AppendWireString(b, "")
			b = AppendEventID(b, clock.EventID{Replica: "a", Seq: 1})
		}
		return b
	}()
)

func TestAWSetStateRejectsMalformed(t *testing.T) {
	for name, data := range map[string][]byte{
		"no tags": awStateNoTags, "repeated": awStateRepeated, "buried twice": awStateBuriedTwice,
	} {
		r := NewWireReader(data)
		if _, err := DecodeCRDTState(&r); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("%s: err = %v, want ErrMalformedWire", name, err)
		}
	}
}

// A snapshot written before adds superseded one another may hold several
// tags of one origin per element; decoding keeps the newest.
func TestAWSetStateFoldsSameOriginTags(t *testing.T) {
	data := awSetState([]string{"x"}, [][]clock.EventID{{
		{Replica: "a", Seq: 3}, {Replica: "a", Seq: 5}, {Replica: "b", Seq: 2},
	}})
	r := NewWireReader(data)
	c, err := DecodeCRDTState(&r)
	if err != nil {
		t.Fatal(err)
	}
	s := c.(*AWSet)
	want := []clock.EventID{{Replica: "a", Seq: 5}, {Replica: "b", Seq: 2}}
	if got := s.elems["x"].tags; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("tags = %v, want %v", got, want)
	}
	// A remove that observed only the superseded tag leaves x present.
	s.Apply(AWRemoveOp{Elem: "x", Tag: clock.EventID{Replica: "b", Seq: 3},
		Observed: map[string][]clock.EventID{"x": {{Replica: "a", Seq: 3}}}})
	if !s.Contains("x") || s.MetadataSize() != 2 {
		t.Fatalf("contains = %v, metadata = %d", s.Contains("x"), s.MetadataSize())
	}
}

// FuzzCRDTState hammers the state decoder with arbitrary bytes. It must
// never panic, any state it accepts must re-encode to bytes that decode
// and re-encode to themselves (decode→encode is a fixed point), and an
// accepted add-wins set must hold every element it lists, with a tag.
func FuzzCRDTState(f *testing.F) {
	for _, c := range sampleStates() {
		b, err := AppendCRDTState(nil, c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(awStateNoTags)
	f.Add(awStateRepeated)
	f.Add(awStateBuriedTwice)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewWireReader(data)
		c, err := DecodeCRDTState(&r)
		if err != nil {
			return
		}
		aw, ok := c.(*AWSet)
		if cs, isComp := c.(*CompSet); isComp {
			aw, ok = cs.set, true
		}
		if ok {
			for _, e := range aw.Elems() {
				if _, tagged := aw.MaxTag(e); !tagged || !aw.Contains(e) {
					t.Fatalf("aw-set lists %q but does not hold it", e)
				}
			}
		}
		once, err := AppendCRDTState(nil, c)
		if err != nil {
			t.Fatalf("decoded %s state does not re-encode: %v", c.Type(), err)
		}
		r = NewWireReader(once)
		again, err := DecodeCRDTState(&r)
		if err != nil {
			t.Fatalf("re-encoded %s state does not decode: %v", c.Type(), err)
		}
		twice, _ := AppendCRDTState(nil, again)
		if !bytes.Equal(once, twice) {
			t.Fatalf("%s state is not a decode→encode fixed point:\n%x\n%x", c.Type(), once, twice)
		}
	})
}
