// Compiled component tables for the demand-driven composition.
//
// Everything LazyMany can precompute without touching a single composite
// state — global event interning, the rendezvous partner table,
// per-component dense edge rows — lives here, apart from the expansion
// that walks the n-way product.
package compose

import (
	"fmt"
	"math/bits"
	"sort"

	"protoquot/internal/spec"
)

// cedge is one component transition over global event ids.
type cedge struct{ ev, to int32 }

// compTables is the compiled read-only description of a component list.
type compTables struct {
	// allEvents is every event of every component, interned in sorted-name
	// order so integer comparison of event ids agrees with the canonical
	// (string) edge order.
	allEvents []spec.Event
	evID      map[spec.Event]int32
	// external is the composite's external alphabet: the events owned by
	// exactly one component, sorted. extIdx maps a global event id to its
	// position in external, or -1 for shared (internal) events.
	external []spec.Event
	extIdx   []int32
	// partner[ci][ev] is the other owner of a shared event, or -1. Stored
	// densely per component to keep the product loops map-free.
	partner [][]int32
	// Per-component dense edge tables over global event ids.
	cext  [][][]cedge
	cintl [][][]int32
	// radixOK reports that the full product count fits in a uint64, so
	// tuple interning can use a mixed-radix integer key instead of a
	// string key over the raw tuple bytes; product is that count when it
	// holds (meaningless otherwise).
	radixOK bool
	product uint64
}

// denseInternLimit is the largest mixed-radix product for which tuple
// interning uses the paged direct-mapped array (intern.go) instead of a
// hash map. Successor interning is the hottest loop of both composition
// engines; the array turns each lookup into one indexed load. Pages are
// allocated only for touched key ranges, so the limit is bounded by the
// page-directory size (a 2^30 product needs a 16K-pointer directory, and
// only the explored slice pays for pages), not by product × 4 bytes as the
// pre-paging flat array was.
const denseInternLimit = 1 << 30

// compileComponents validates the component list (pairwise-disjoint
// interfaces, as Many requires) and builds the shared tables.
func compileComponents(components []*spec.Spec) (*compTables, error) {
	if err := CheckPairwiseInterfaces(components...); err != nil {
		return nil, err
	}
	t := &compTables{}

	ownersOf := make(map[spec.Event][]int32)
	for ci, c := range components {
		for _, e := range c.Alphabet() {
			ownersOf[e] = append(ownersOf[e], int32(ci))
		}
	}
	t.allEvents = make([]spec.Event, 0, len(ownersOf))
	for e := range ownersOf {
		t.allEvents = append(t.allEvents, e)
	}
	sort.Slice(t.allEvents, func(i, j int) bool { return t.allEvents[i] < t.allEvents[j] })
	t.evID = make(map[spec.Event]int32, len(t.allEvents))
	t.extIdx = make([]int32, len(t.allEvents))
	for i, e := range t.allEvents {
		t.evID[e] = int32(i)
		t.extIdx[i] = -1
		if len(ownersOf[e]) == 1 {
			t.extIdx[i] = int32(len(t.external))
			t.external = append(t.external, e)
		}
	}

	nev := len(t.allEvents)
	t.partner = make([][]int32, len(components))
	for ci := range components {
		t.partner[ci] = make([]int32, nev)
		for i := range t.partner[ci] {
			t.partner[ci][i] = -1
		}
	}
	for e, owners := range ownersOf {
		if len(owners) == 2 {
			t.partner[owners[0]][t.evID[e]] = owners[1]
			t.partner[owners[1]][t.evID[e]] = owners[0]
		}
	}

	t.cext = make([][][]cedge, len(components))
	t.cintl = make([][][]int32, len(components))
	for ci, c := range components {
		t.cext[ci] = make([][]cedge, c.NumStates())
		t.cintl[ci] = make([][]int32, c.NumStates())
		for s := 0; s < c.NumStates(); s++ {
			for _, ed := range c.ExtEdges(spec.State(s)) {
				t.cext[ci][s] = append(t.cext[ci][s], cedge{ev: t.evID[ed.Event], to: int32(ed.To)})
			}
			for _, to := range c.IntEdges(spec.State(s)) {
				t.cintl[ci][s] = append(t.cintl[ci][s], int32(to))
			}
		}
	}

	t.radixOK = true
	prod := uint64(1)
	for _, c := range components {
		n := uint64(c.NumStates())
		if n == 0 {
			// The old guard (prod > (1<<63)/n) divided by zero here; a
			// zero-state component has no initial state and no product to
			// speak of, so reject it outright.
			return nil, fmt.Errorf("compose: component %s has no states", c.Name())
		}
		hi, lo := bits.Mul64(prod, n)
		if hi != 0 {
			// Product overflows uint64: fall back to string-keyed tuple
			// interning. (The old guard also under-approximated the radix
			// range by one bit; exact detection keeps 2^63..2^64-1 products
			// on the fast integer key.)
			t.radixOK = false
			break
		}
		prod = lo
	}
	t.product = prod
	return t, nil
}

// MinimizeComponents returns the component list with every machine replaced
// by its strong-bisimulation minimization (spec.Minimize). Minimization is a
// congruence for composition — each component stays strongly bisimilar, so
// the composite, and any quotient derived from it, keeps the same language
// and the same satisfaction properties — while the product state space can
// shrink multiplicatively. This is the pre-reduction behind
// core.Options.MinimizeComponents and the quotient -minimize-env flag.
func MinimizeComponents(components ...*spec.Spec) []*spec.Spec {
	out := make([]*spec.Spec, len(components))
	for i, c := range components {
		out[i] = c.Minimize()
	}
	return out
}
