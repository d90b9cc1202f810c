package core

import (
	"fmt"
	"math/rand"
	"testing"

	"protoquot/internal/spec"
)

// TestEmitConverterMatchesReferenceOnRandomRows drives the emitter directly
// with random successor rows and alive masks. Derived converters are
// numbered breadth-first, which makes the Builder's first renumbering close
// to the identity; random rows break that, so this pins both renumberings
// and the trim to the Builder+Trim reference on arbitrary graphs.
func TestEmitConverterMatchesReferenceOnRandomRows(t *testing.T) {
	a := spec.NewBuilder("A").Init("a0").MustBuild()
	b := spec.NewBuilder("B").Init("b0").MustBuild()
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(12)
		d := &deriver{a: a, bs: []Environment{b}, intl: []spec.Event{"x", "y", "z"}[:1+rng.Intn(3)]}
		d.states = make([]cstate, n)
		alive := make([]bool, n)
		for ci := range d.states {
			alive[ci] = ci == 0 || rng.Intn(4) > 0
			succ := make([]int32, len(d.intl))
			for ei := range succ {
				succ[ei] = -1
				if rng.Intn(3) > 0 {
					succ[ei] = int32(rng.Intn(n))
				}
			}
			d.states[ci].succ = succ
		}
		got, err := d.emitConverter(alive)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.referenceEmit(alive)
		if err != nil {
			t.Fatal(err)
		}
		if diff := describeDiff(got, want); diff != "" {
			t.Fatalf("iteration %d: %s", iter, diff)
		}
	}
}

// describeDiff reports how got differs from want in state numbering or
// Format, or "" when it does not.
func describeDiff(got, want *spec.Spec) string {
	if got.NumStates() != want.NumStates() {
		return fmt.Sprintf("%d states, want %d", got.NumStates(), want.NumStates())
	}
	for i := 0; i < got.NumStates(); i++ {
		if g, w := got.StateName(spec.State(i)), want.StateName(spec.State(i)); g != w {
			return fmt.Sprintf("state %d is %s, want %s", i, g, w)
		}
	}
	if g, w := got.Format(), want.Format(); g != w {
		return fmt.Sprintf("Format:\n%s--- want ---\n%s", g, w)
	}
	return ""
}
