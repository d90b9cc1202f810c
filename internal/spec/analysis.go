package spec

// This file computes the derived structures that the quotient algorithm and
// the satisfaction checker consume:
//
//   λ*        — reflexive-transitive closure of the internal relation,
//   sink sets — λ-SCCs with no escaping internal transition (paper §3),
//   τ.s       — external events enabled in s,
//   τ*.s      — external events enabled in any state internally reachable
//               from s,
//   reachability from the initial state.
//
// All of it is computed once, at Build time, because Specs are immutable.

// finalize populates the derived fields. Called exactly once by Build.
func (s *Spec) finalize() {
	n := s.NumStates()

	// λ-SCCs via iterative Tarjan, then per-SCC "terminal" flag.
	s.scc = make([]int, n)
	s.computeSCCs()
	numSCC := 0
	for _, id := range s.scc {
		if id+1 > numSCC {
			numSCC = id + 1
		}
	}
	s.sccSink = make([]bool, numSCC)
	for i := range s.sccSink {
		s.sccSink[i] = true
	}
	for st := 0; st < n; st++ {
		for _, t := range s.intl[st] {
			if s.scc[st] != s.scc[State(t)] {
				s.sccSink[s.scc[st]] = false
			}
		}
	}

	// λ*-closure per state (sorted), by BFS over λ. A state without λ
	// edges is its own closure, carved from one shared identity array.
	s.closure = make([][]State, n)
	self := make([]State, n)
	mark := make([]int, n)
	for i := range mark {
		self[i] = State(i)
		mark[i] = -1
	}
	var queue []State
	for st := 0; st < n; st++ {
		if len(s.intl[st]) == 0 {
			s.closure[st] = self[st : st+1 : st+1]
			continue
		}
		queue = queue[:0]
		queue = append(queue, State(st))
		mark[st] = st
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range s.intl[u] {
				if mark[v] != st {
					mark[v] = st
					queue = append(queue, v)
				}
			}
		}
		cl := make([]State, len(queue))
		copy(cl, queue)
		sortStates(cl)
		s.closure[st] = cl
	}

	// τ.s is the distinct events of the sorted ext[st], so one linear pass
	// dedupes it; all τ sets share one backing array of at most |T| events.
	// τ*.s is τ.s itself when the λ*-closure is the state alone; only real
	// λ-closures take the union through a set and a sort.
	s.tau = make([][]Event, n)
	s.tauStar = make([][]Event, n)
	s.detExt = true
	tauBuf := make([]Event, 0, s.numExt)
	for st := 0; st < n; st++ {
		lo := len(tauBuf)
		for i, ed := range s.ext[st] {
			if i > 0 && ed.Event == s.ext[st][i-1].Event {
				s.detExt = false // two edges, same event (sorted adjacency)
				continue
			}
			tauBuf = append(tauBuf, ed.Event)
		}
		s.tau[st] = tauBuf[lo:len(tauBuf):len(tauBuf)]
	}
	for st := 0; st < n; st++ {
		if len(s.closure[st]) == 1 {
			s.tauStar[st] = s.tau[st]
			continue
		}
		seen := make(map[Event]struct{})
		for _, u := range s.closure[st] {
			for _, e := range s.tau[u] {
				seen[e] = struct{}{}
			}
		}
		evs := make([]Event, 0, len(seen))
		for e := range seen {
			evs = append(evs, e)
		}
		sortEvents(evs)
		s.tauStar[st] = evs
	}
	s.hasIntl = s.numIntl > 0

	// Reachability from init via T ∪ λ.
	s.reachSet = reachable(s.dense())
}

// computeSCCs runs an iterative Tarjan SCC over the λ-graph.
func (s *Spec) computeSCCs() {
	n := s.NumStates()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []State
	next := 0
	sccID := 0

	type frame struct {
		v  State
		ei int // next λ-edge index to explore
	}
	var callStack []frame

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{v: State(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, State(root))
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.ei < len(s.intl[v]) {
				w := s.intl[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// All edges of v explored: pop.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					s.scc[w] = sccID
					if w == v {
						break
					}
				}
				sccID++
			}
		}
	}
}

// LambdaClosure returns all states reachable from st via zero or more
// internal transitions (s λ* s'), sorted ascending. The caller must not
// modify the returned slice.
func (s *Spec) LambdaClosure(st State) []State { return s.closure[st] }

// CanReachInternally reports st λ* to.
func (s *Spec) CanReachInternally(st, to State) bool {
	cl := s.closure[st]
	lo, hi := 0, len(cl)
	for lo < hi {
		mid := (lo + hi) / 2
		if cl[mid] < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(cl) && cl[lo] == to
}

// Sink reports whether st belongs to a sink set: every state internally
// reachable from st can internally reach st back (paper §3). Equivalently,
// st's λ-SCC has no internal transition leaving it.
func (s *Spec) Sink(st State) bool { return s.sccSink[s.scc[st]] }

// SinkSet returns the members of st's sink set (its λ-SCC) if Sink(st),
// and nil otherwise.
func (s *Spec) SinkSet(st State) []State {
	if !s.Sink(st) {
		return nil
	}
	var out []State
	for u := 0; u < s.NumStates(); u++ {
		if s.scc[u] == s.scc[st] {
			out = append(out, State(u))
		}
	}
	return out
}

// Tau returns τ.s — the external events enabled in st — sorted. The caller
// must not modify the returned slice.
func (s *Spec) Tau(st State) []Event { return s.tau[st] }

// TauStar returns τ*.s — the external events enabled in any state
// internally reachable from st — sorted. The caller must not modify the
// returned slice.
func (s *Spec) TauStar(st State) []Event { return s.tauStar[st] }

// Reachable returns all states reachable from the initial state via
// external or internal transitions, sorted ascending.
func (s *Spec) Reachable() []State {
	var out []State
	for st, ok := range s.reachSet {
		if ok {
			out = append(out, State(st))
		}
	}
	return out
}

// IsReachable reports whether st is reachable from the initial state.
func (s *Spec) IsReachable(st State) bool { return s.reachSet[st] }

// subsetOf reports a ⊆ b for sorted event slices.
func subsetOf(a, b []Event) bool {
	i := 0
	for _, e := range a {
		for i < len(b) && b[i] < e {
			i++
		}
		if i >= len(b) || b[i] != e {
			return false
		}
	}
	return true
}

// EventsSubset reports whether every event of a (sorted) appears in b
// (sorted). Exported for use by the satisfaction and quotient packages.
func EventsSubset(a, b []Event) bool { return subsetOf(a, b) }
