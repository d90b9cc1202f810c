package spec

import (
	"fmt"
	"slices"
)

// Dense is the raw material for FromDense: a specification already laid out
// over dense state indices. It exists for producers that compute the state
// space themselves (the fused composition in internal/compose), for whom
// routing every state and edge through the Builder's per-edge hash maps is
// pure overhead.
type Dense struct {
	// Name is the specification name.
	Name string
	// StateNames holds one name per state; index is the State id.
	StateNames []string
	// Init is the initial state index.
	Init State
	// Alphabet is Σ. It need not be sorted; it must not contain duplicates
	// or events absent from it referenced by Ext.
	Alphabet []Event
	// Ext is the external adjacency per state. Slices need not be sorted
	// or deduplicated; FromDense canonicalizes. Nil entries are fine.
	Ext [][]ExtEdge
	// Int is the internal adjacency per state, same conventions as Ext.
	Int [][]State
}

// FromDense validates, canonicalizes, and freezes a Dense specification,
// running the same derived analyses (λ*-closures, SCCs, τ/τ* sets,
// reachability) as Builder.Build. The input slices are copied; the caller
// may reuse them.
func FromDense(d Dense) (*Spec, error) {
	s, err := canonicalDense(d)
	if err != nil {
		return nil, err
	}
	s.finalize()
	return s, nil
}

// canonicalDense is FromDense without the derived analyses: it validates d
// and copies it into a Spec whose adjacency is sorted and deduplicated. The
// edge lists share one backing array per relation, and a list that already
// arrives in canonical order (the common case for producers that emit edges
// in event order) is only checked, not re-sorted.
func canonicalDense(d Dense) (*Spec, error) {
	n := len(d.StateNames)
	if n == 0 {
		return nil, fmt.Errorf("spec %s: no states defined", d.Name)
	}
	if d.Init < 0 || int(d.Init) >= n {
		return nil, fmt.Errorf("spec %s: init state %d out of range [0,%d)", d.Name, d.Init, n)
	}
	if len(d.Ext) > n || len(d.Int) > n {
		return nil, fmt.Errorf("spec %s: adjacency longer than state list", d.Name)
	}
	s := &Spec{
		name:       d.Name,
		stateNames: append([]string(nil), d.StateNames...),
		stateIndex: make(map[string]State, n),
		alphabet:   append([]Event(nil), d.Alphabet...),
		alphaSet:   make(map[Event]struct{}, len(d.Alphabet)),
		ext:        make([][]ExtEdge, n),
		intl:       make([][]State, n),
		init:       d.Init,
	}
	for i, name := range s.stateNames {
		if name == "" {
			return nil, fmt.Errorf("spec %s: state %d has an empty name", d.Name, i)
		}
		if _, dup := s.stateIndex[name]; dup {
			return nil, fmt.Errorf("spec %s: duplicate state name %q", d.Name, name)
		}
		s.stateIndex[name] = State(i)
	}
	for _, e := range s.alphabet {
		if e == "" {
			return nil, fmt.Errorf("spec %s: empty event name in alphabet", d.Name)
		}
		if _, dup := s.alphaSet[e]; dup {
			return nil, fmt.Errorf("spec %s: duplicate event %q in alphabet", d.Name, e)
		}
		s.alphaSet[e] = struct{}{}
	}
	sortEvents(s.alphabet)
	extBuf := make([]ExtEdge, 0, totalLen(d.Ext))
	for st, edges := range d.Ext {
		if len(edges) == 0 {
			continue
		}
		lo := len(extBuf)
		extBuf = append(extBuf, edges...)
		out := extBuf[lo:]
		if !slices.IsSortedFunc(out, compareEdges) {
			sortEdges(out)
		}
		out = dedupeExt(out)
		for _, ed := range out {
			if ed.To < 0 || int(ed.To) >= n {
				return nil, fmt.Errorf("spec %s: edge target %d out of range", d.Name, ed.To)
			}
			if _, ok := s.alphaSet[ed.Event]; !ok {
				return nil, fmt.Errorf("spec %s: edge event %q not in alphabet", d.Name, ed.Event)
			}
		}
		extBuf = extBuf[:lo+len(out)]
		s.ext[st] = out[:len(out):len(out)]
		s.numExt += len(out)
	}
	intBuf := make([]State, 0, totalLen(d.Int))
	for st, tos := range d.Int {
		if len(tos) == 0 {
			continue
		}
		lo := len(intBuf)
		intBuf = append(intBuf, tos...)
		out := intBuf[lo:]
		if !slices.IsSorted(out) {
			sortStates(out)
		}
		out = dedupeStates(out)
		for _, t := range out {
			if t < 0 || int(t) >= n {
				return nil, fmt.Errorf("spec %s: internal edge target %d out of range", d.Name, t)
			}
		}
		intBuf = intBuf[:lo+len(out)]
		s.intl[st] = out[:len(out):len(out)]
		s.numIntl += len(out)
	}
	return s, nil
}

// totalLen is the summed length of an adjacency relation.
func totalLen[E any](rows [][]E) int {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	return n
}

// dedupeExt removes adjacent duplicates from a sorted edge list, in place.
func dedupeExt(edges []ExtEdge) []ExtEdge {
	out := edges[:1]
	for _, ed := range edges[1:] {
		if ed != out[len(out)-1] {
			out = append(out, ed)
		}
	}
	return out
}

// dedupeStates removes adjacent duplicates from a sorted state list, in place.
func dedupeStates(sts []State) []State {
	out := sts[:1]
	for _, t := range sts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}
