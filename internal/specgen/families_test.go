package specgen

import (
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/spec"
)

// The family tests validate structure only (composability, determinism,
// normal form); end-to-end derivability is asserted at the protoquot level
// where internal/core is importable without a dependency cycle.

func composeFamily(t *testing.T, f Family) *spec.Spec {
	t.Helper()
	b, err := compose.Many(f.Components...)
	if err != nil {
		t.Fatalf("%s: compose: %v", f.Name, err)
	}
	return b
}

func TestChainFamilyShape(t *testing.T) {
	for n := 1; n <= 4; n++ {
		f := Chain(n)
		if err := f.Service.IsNormalForm(); err != nil {
			t.Fatalf("%s: service not in normal form: %v", f.Name, err)
		}
		b := composeFamily(t, f)
		// Converter-facing alphabet: exactly {+xn, -y}.
		var intl []spec.Event
		for _, e := range b.Alphabet() {
			if !f.Service.HasEvent(e) {
				intl = append(intl, e)
			}
		}
		if len(intl) != 2 {
			t.Fatalf("%s: Int alphabet %v, want 2 events", f.Name, intl)
		}
		// Every fill pattern of the 2n+1 pipeline slots is reachable, plus
		// the sender/receiver phases: |S_B| = 2^(2n+2).
		want := 1 << (2*n + 2)
		if b.NumStates() != want {
			t.Errorf("%s: |S_B| = %d, want %d", f.Name, b.NumStates(), want)
		}
	}
}

func TestRingFamilyShape(t *testing.T) {
	// n is capped at 3 here: the pairwise left fold explodes on open rings
	// (every intermediate product is unconstrained until the ring closes),
	// which is the very hotspot the demand-driven composition avoids —
	// larger n is covered by the lazy-path tests at the protoquot level.
	for n := 1; n <= 3; n++ {
		f := Ring(n)
		if err := f.Service.IsNormalForm(); err != nil {
			t.Fatalf("%s: service not in normal form: %v", f.Name, err)
		}
		if got, want := f.Service.NumStates(), 2*n; got != want {
			t.Fatalf("%s: service has %d states, want %d", f.Name, got, want)
		}
		b := composeFamily(t, f)
		var intl []spec.Event
		for _, e := range b.Alphabet() {
			if !f.Service.HasEvent(e) {
				intl = append(intl, e)
			}
		}
		if len(intl) != 2*n {
			t.Fatalf("%s: Int alphabet has %d events, want %d", f.Name, len(intl), 2*n)
		}
	}
}

// Families are deterministic: two independent constructions are identical
// down to the Format listing of every machine.
func TestFamiliesDeterministic(t *testing.T) {
	for _, mk := range []func(int) Family{Chain, Ring} {
		f1, f2 := mk(3), mk(3)
		if f1.Name != f2.Name {
			t.Fatalf("names differ: %s vs %s", f1.Name, f2.Name)
		}
		if f1.Service.Format() != f2.Service.Format() {
			t.Errorf("%s: service not deterministic", f1.Name)
		}
		if len(f1.Components) != len(f2.Components) {
			t.Fatalf("%s: component counts differ", f1.Name)
		}
		for i := range f1.Components {
			if f1.Components[i].Format() != f2.Components[i].Format() {
				t.Errorf("%s: component %d not deterministic", f1.Name, i)
			}
		}
	}
}
