package spec

// Trimming and Builder-order rebuilds, done as integer renumberings over
// dense adjacency instead of replays through a Builder's string maps.
//
// A Builder numbers states by first mention. Replaying a spec into one —
// the initial state first, then each state in index order, each followed by
// its external targets and then its internal targets, in adjacency order —
// and calling Build therefore renumbers it; Trim has always been exactly
// such a replay restricted to the reachable states. renumber computes that
// numbering directly, so the results keep the Builder's state numbering,
// and with it Format and Hash, byte for byte.

// Trim returns a copy of the spec restricted to reachable states. The
// alphabet is preserved even if some events no longer label any transition
// (the interface of a component is part of its identity). State names are
// preserved. States are numbered in first-mention order: the initial state
// first, then each reachable state in index order followed by its
// external targets and then its internal targets, in adjacency order.
func (s *Spec) Trim() *Spec {
	t, err := FromDense(renumber(s.dense(), s.reachSet))
	if err != nil {
		panic(err) // a renumbered valid spec is valid
	}
	return t
}

// BuildTrimmed freezes d the way replaying it into a Builder and trimming
// the result would: the state numbering is the Builder's first-mention
// order over d's canonical (sorted, deduplicated) adjacency, restricted to
// the states reachable from d.Init and renumbered again as Trim does. It
// applies every FromDense check and never builds the untrimmed spec's
// derived analyses.
func BuildTrimmed(d Dense) (*Spec, error) {
	s, err := canonicalDense(d)
	if err != nil {
		return nil, err
	}
	built := renumber(s.dense(), nil)
	return FromDense(renumber(built, reachable(built)))
}

// dense views the spec's own canonical arrays as a Dense, without copying.
func (s *Spec) dense() Dense {
	return Dense{
		Name:       s.name,
		StateNames: s.stateNames,
		Init:       s.init,
		Alphabet:   s.alphabet,
		Ext:        s.ext,
		Int:        s.intl,
	}
}

// renumber returns d restricted to the states keep marks (every state when
// keep is nil), numbered in first-mention order: d.Init first, then each
// kept state in index order followed by its kept external targets and then
// its kept internal targets, in adjacency order. Edges into dropped states
// are dropped, and each adjacency list is sorted under the new numbers. d's
// adjacency must be canonical: one list per state, sorted, deduplicated and
// in range, as canonicalDense and renumber itself produce.
func renumber(d Dense, keep []bool) Dense {
	n := len(d.StateNames)
	id := make([]State, n)
	for i := range id {
		id[i] = -1
	}
	order := make([]State, 0, n)
	mention := func(st State) {
		if id[st] < 0 && (keep == nil || keep[st]) {
			id[st] = State(len(order))
			order = append(order, st)
		}
	}
	mention(d.Init)
	for st := 0; st < n; st++ {
		if keep != nil && !keep[st] {
			continue
		}
		mention(State(st))
		for _, ed := range d.Ext[st] {
			mention(ed.To)
		}
		for _, t := range d.Int[st] {
			mention(t)
		}
	}

	out := Dense{
		Name:       d.Name,
		StateNames: make([]string, len(order)),
		Alphabet:   d.Alphabet,
		Ext:        make([][]ExtEdge, len(order)),
		Int:        make([][]State, len(order)),
	}
	extBuf := make([]ExtEdge, 0, totalLen(d.Ext))
	intBuf := make([]State, 0, totalLen(d.Int))
	for k, st := range order {
		out.StateNames[k] = d.StateNames[st]
		lo := len(extBuf)
		for _, ed := range d.Ext[st] {
			if to := id[ed.To]; to >= 0 {
				extBuf = append(extBuf, ExtEdge{Event: ed.Event, To: to})
			}
		}
		out.Ext[k] = extBuf[lo:len(extBuf):len(extBuf)]
		sortEdges(out.Ext[k])
		lo = len(intBuf)
		for _, t := range d.Int[st] {
			if to := id[t]; to >= 0 {
				intBuf = append(intBuf, to)
			}
		}
		out.Int[k] = intBuf[lo:len(intBuf):len(intBuf)]
		sortStates(out.Int[k])
	}
	return out
}

// reachable marks the states reachable from d.Init via external or
// internal transitions. d's adjacency must be canonical (see renumber).
func reachable(d Dense) []bool {
	seen := make([]bool, len(d.StateNames))
	stack := []State{d.Init}
	seen[d.Init] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ed := range d.Ext[u] {
			if !seen[ed.To] {
				seen[ed.To] = true
				stack = append(stack, ed.To)
			}
		}
		for _, v := range d.Int[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}
