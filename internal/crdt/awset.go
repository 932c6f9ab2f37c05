package crdt

import (
	"slices"
	"sort"

	"ipa/internal/clock"
)

// AWSet is an add-wins (observed-remove) set with optional per-element
// payloads. A remove only cancels the add events it has observed, so an
// add concurrent with a remove survives the merge — the conflict
// resolution the IPA analysis relies on to let restoring effects prevail
// (paper Fig. 2b).
//
// The set also provides the paper's touch operation (§4.2.1): an add that
// re-asserts membership while preserving the payload the element had, even
// if a concurrent remove deleted it — removed payloads are kept in a
// graveyard until the stability horizon passes the remove.
//
// Each live element holds at most one add tag per origin replica: an add
// or touch from origin o supersedes the element's older tag from o. The
// store guarantees what makes this safe — remote updates arrive in causal
// order (per-origin FIFO, dependencies first) and a replica applies its
// own updates in sequence order — so any remove that observed o's newer
// tag also observed every older one still live here, and dropping the
// older tag never changes membership, payloads or MaxTag.
type AWSet struct {
	elems     map[string]awElem // live elements
	graveyard map[string]graveEntry
}

// awElem is one live element: its add tags, at most one per origin and
// sorted by replica (never empty), and its payload.
type awElem struct {
	tags []clock.EventID
	pay  string
}

// addTag records t, superseding the element's tag from t's origin. It
// reports false, changing nothing, when the element already holds a tag
// from that origin at least as new.
func (e *awElem) addTag(t clock.EventID) bool {
	i := 0
	for i < len(e.tags) && e.tags[i].Replica < t.Replica {
		i++
	}
	if i < len(e.tags) && e.tags[i].Replica == t.Replica {
		if e.tags[i].Seq >= t.Seq {
			return false
		}
		e.tags[i].Seq = t.Seq
		return true
	}
	e.tags = slices.Insert(e.tags, i, t)
	return true
}

type graveEntry struct {
	payload string
	removed clock.EventID // the remove event that sent the payload here
}

// NewAWSet returns an empty add-wins set.
func NewAWSet() *AWSet {
	return &AWSet{
		elems:     map[string]awElem{},
		graveyard: map[string]graveEntry{},
	}
}

// Type implements CRDT.
func (s *AWSet) Type() string { return "aw-set" }

// AWAddOp adds an element (or touches it, preserving payload).
type AWAddOp struct {
	Elem  string
	Tag   clock.EventID
	Pay   string
	Touch bool // touch: do not overwrite an existing payload
}

// ID implements Op.
func (o AWAddOp) ID() clock.EventID { return o.Tag }

// AWRemoveOp removes the observed add events of matching elements.
type AWRemoveOp struct {
	Elem     string // exact element, when Pred is nil
	Pred     Predicate
	Observed map[string][]clock.EventID // element -> observed add tags
	Tag      clock.EventID
}

// ID implements Op.
func (o AWRemoveOp) ID() clock.EventID { return o.Tag }

// PrepareAdd builds the op that inserts elem with the given payload.
func (s *AWSet) PrepareAdd(elem, payload string, tag clock.EventID) AWAddOp {
	return AWAddOp{Elem: elem, Tag: tag, Pay: payload}
}

// PrepareTouch builds the paper's touch: membership is re-asserted (an add
// that wins over concurrent removes) but the element's existing payload is
// kept — including a payload a concurrent remove sent to the graveyard.
func (s *AWSet) PrepareTouch(elem string, tag clock.EventID) AWAddOp {
	return AWAddOp{Elem: elem, Tag: tag, Touch: true}
}

// PrepareRemove builds the op that removes elem, cancelling the add events
// observed at this replica. The observed tags are a copy: Apply rewrites
// an element's tags in place, and the op may outlive this state in a send
// queue or WAL buffer.
func (s *AWSet) PrepareRemove(elem string, tag clock.EventID) AWRemoveOp {
	obs := map[string][]clock.EventID{}
	if e, ok := s.elems[elem]; ok {
		obs[elem] = slices.Clone(e.tags)
	}
	return AWRemoveOp{Elem: elem, Observed: obs, Tag: tag}
}

// PrepareRemoveWhere builds a wildcard remove: every element matching pred
// has its observed add events cancelled. Adds concurrent with this op
// still win (add-wins). For remove-wins wildcard semantics use RWSet.
func (s *AWSet) PrepareRemoveWhere(pred Predicate, tag clock.EventID) AWRemoveOp {
	obs := map[string][]clock.EventID{}
	for elem, e := range s.elems {
		if pred.Matches(elem) {
			obs[elem] = slices.Clone(e.tags)
		}
	}
	return AWRemoveOp{Pred: pred, Observed: obs, Tag: tag}
}

// Apply implements CRDT.
func (s *AWSet) Apply(op Op) {
	switch o := op.(type) {
	case AWAddOp:
		e, live := s.elems[o.Elem]
		if !e.addTag(o.Tag) {
			return // an add from this origin at least as new is held
		}
		switch {
		case !o.Touch:
			e.pay = o.Pay
		case !live:
			// A touch revives the payload a concurrent remove buried.
			if g, ok := s.graveyard[o.Elem]; ok {
				e.pay = g.payload
				delete(s.graveyard, o.Elem)
			}
		}
		s.elems[o.Elem] = e
	case AWRemoveOp:
		for elem, observed := range o.Observed {
			e, ok := s.elems[elem]
			if !ok {
				continue
			}
			kept := e.tags[:0]
			for _, t := range e.tags {
				if !slices.Contains(observed, t) {
					kept = append(kept, t)
				}
			}
			if len(kept) > 0 {
				e.tags = kept
				s.elems[elem] = e
				continue
			}
			delete(s.elems, elem)
			s.graveyard[elem] = graveEntry{payload: e.pay, removed: o.Tag}
		}
	}
}

// Compact implements CRDT: graveyard payloads whose remove event is stable
// can never be revived by a concurrent touch, so they are dropped.
func (s *AWSet) Compact(horizon clock.Vector) {
	for elem, g := range s.graveyard {
		if horizon.Contains(g.removed) {
			delete(s.graveyard, elem)
		}
	}
}

// Contains reports membership.
func (s *AWSet) Contains(elem string) bool {
	_, ok := s.elems[elem]
	return ok
}

// Payload returns the element's payload ("" when absent).
func (s *AWSet) Payload(elem string) (string, bool) {
	e, ok := s.elems[elem]
	return e.pay, ok
}

// Size returns the number of elements.
func (s *AWSet) Size() int { return len(s.elems) }

// Elems returns the members in sorted order.
func (s *AWSet) Elems() []string { return sortedKeys(s.elems) }

// ElemsWhere returns the members matching pred, sorted.
func (s *AWSet) ElemsWhere(pred Predicate) []string {
	var out []string
	for e := range s.elems {
		if pred.Matches(e) {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// MetadataSize reports the number of metadata entries held: live add
// tags (at most one per origin per element) plus graveyard payloads.
func (s *AWSet) MetadataSize() int {
	n := len(s.graveyard)
	for _, e := range s.elems {
		n += len(e.tags)
	}
	return n
}

// MaxTag returns the largest live add event of elem, which the
// Compensation Set uses to pick victims deterministically.
func (s *AWSet) MaxTag(elem string) (clock.EventID, bool) {
	e, ok := s.elems[elem]
	if !ok {
		return clock.EventID{}, false
	}
	// One tag per origin, sorted by replica: the last is the largest.
	return e.tags[len(e.tags)-1], true
}
