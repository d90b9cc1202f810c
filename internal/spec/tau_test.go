package spec_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"protoquot/internal/spec"
)

// refTau computes τ.s, τ*.s and external determinism the map-and-sort way,
// from the spec's edges alone: the λ*-closure by its own BFS, each event
// set through a map, then sorted.
func refTau(s *spec.Spec) (tau, tauStar [][]spec.Event, det bool) {
	set := func(evs map[spec.Event]bool) []spec.Event {
		out := []spec.Event{}
		for e := range evs {
			out = append(out, e)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	n := s.NumStates()
	det = true
	for i := 0; i < n; i++ {
		evs := map[spec.Event]bool{}
		for _, ed := range s.ExtEdges(spec.State(i)) {
			if evs[ed.Event] {
				det = false
			}
			evs[ed.Event] = true
		}
		tau = append(tau, set(evs))
	}
	for i := 0; i < n; i++ {
		seen := map[spec.State]bool{spec.State(i): true}
		queue := []spec.State{spec.State(i)}
		evs := map[spec.Event]bool{}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range tau[u] {
				evs[e] = true
			}
			for _, v := range s.IntEdges(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		tauStar = append(tauStar, set(evs))
	}
	return tau, tauStar, det
}

// TestTauSetsMatchMapAndSortReference: the linear τ sets, the τ* sets that
// share τ when the closure is trivial, and DeterministicExternal must equal
// the map-and-sort reference on random specs with λ-cycles and
// duplicate-event edges, whether built through a Builder or FromDense.
func TestTauSetsMatchMapAndSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var cycles, dupEvents int
	for i := 0; i < 500; i++ {
		s := randomSpec(rng)
		if i%2 == 1 {
			var err error
			if s, err = spec.FromDense(denseOf(s)); err != nil {
				t.Fatal(err)
			}
		}
		tau, tauStar, det := refTau(s)
		if !det {
			dupEvents++
		}
		for st := 0; st < s.NumStates(); st++ {
			x := spec.State(st)
			for _, v := range s.IntEdges(x) {
				if s.CanReachInternally(v, x) {
					cycles++
				}
			}
			if got := s.Tau(x); !slices.Equal(got, tau[st]) {
				t.Fatalf("spec %d state %d: Tau = %v, want %v\n%s", i, st, got, tau[st], s.Format())
			}
			if got := s.TauStar(x); !slices.Equal(got, tauStar[st]) {
				t.Fatalf("spec %d state %d: TauStar = %v, want %v\n%s", i, st, got, tauStar[st], s.Format())
			}
		}
		if s.DeterministicExternal() != det {
			t.Fatalf("spec %d: DeterministicExternal = %v, want %v\n%s", i, !det, det, s.Format())
		}
	}
	if cycles == 0 || dupEvents == 0 {
		t.Fatalf("random corpus lacks λ-cycles (%d) or duplicate-event edges (%d)", cycles, dupEvents)
	}
}
