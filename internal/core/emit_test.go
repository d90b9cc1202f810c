package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/protocols"
	"protoquot/internal/protosmith"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// emitSystem is one derivation input of the emitter differential.
type emitSystem struct {
	name string
	a    *spec.Spec
	env  func() (core.Environment, error)
	opts core.Options
}

// goldenEmitSystems are the systems of the root package's golden fixtures
// (testdata/golden), with the same options.
func goldenEmitSystems(t *testing.T) []emitSystem {
	t.Helper()
	win, err := protocols.WindowToNSB(protocols.WindowConfig{Window: 2, Modulus: 3})
	if err != nil {
		t.Fatal(err)
	}
	eager := func(b *spec.Spec) func() (core.Environment, error) {
		return func() (core.Environment, error) { return b, nil }
	}
	omit := core.Options{OmitVacuous: true}
	systems := []emitSystem{
		{"symmetric-safety", protocols.Service(), eager(protocols.SymmetricB()),
			core.Options{SafetyOnly: true, OmitVacuous: true}},
		{"symmetric-noquotient", protocols.Service(), eager(protocols.SymmetricB()), omit},
		{"weak-service", protocols.AtLeastOnceService(), eager(protocols.SymmetricB()), omit},
		{"colocated", protocols.Service(), eager(protocols.ColocatedB()), core.Options{}},
		{"window2-ns", protocols.WindowService(2), eager(win), omit},
		{"figure18-transport", protocols.CST(), eager(protocols.TransportB18()), omit},
	}
	for _, f := range []specgen.Family{
		specgen.Chain(2), specgen.Chain(3), specgen.ChainDrop(2),
		specgen.ChainDrop(3), specgen.Ring(1), specgen.Ring(2),
	} {
		comps := f.Components
		systems = append(systems, emitSystem{f.Name, f.Service, func() (core.Environment, error) {
			return compose.Many(comps...)
		}, omit})
	}
	return systems
}

// emitOutcome derives sys and renders everything the emitter decides: the
// converter listing (state numbering included), its hash, and the counts
// Stats reports for it, plus the verdict and error. It also reports
// whether a converter was emitted.
func emitOutcome(sys emitSystem) (string, bool) {
	env, err := sys.env()
	if err != nil {
		return "env: " + err.Error(), false
	}
	res, err := core.DeriveEnv(sys.a, env, sys.opts)
	out := fmt.Sprintf("err: %v\n", err)
	if res == nil {
		return out, false
	}
	out += fmt.Sprintf("exists: %v final: %d/%d\n",
		res.Exists, res.Stats.FinalStates, res.Stats.FinalTransitions)
	if res.Converter == nil {
		return out, false
	}
	return out + res.Converter.Hash() + "\n" + res.Converter.Format(), true
}

// TestEmitterMatchesBuilderReference is the emitter differential: on the
// golden systems and 250 protosmith systems, the integer emitter must
// produce byte-identical output to the Builder+Trim emission it replaced.
func TestEmitterMatchesBuilderReference(t *testing.T) {
	systems := goldenEmitSystems(t)
	for seed := int64(1); seed <= 250; seed++ {
		sys := protosmith.Generate(seed, protosmith.DefaultKnobs())
		systems = append(systems, emitSystem{
			name: fmt.Sprintf("protosmith seed %d", seed),
			a:    sys.Service,
			env: func() (core.Environment, error) {
				return compose.LazyMany(sys.Components...)
			},
			opts: core.Options{OmitVacuous: true, MaxStates: 50000},
		})
	}
	converters := 0
	for _, sys := range systems {
		got, emitted := emitOutcome(sys)
		restore := core.UseReferenceEmitter()
		want, _ := emitOutcome(sys)
		restore()
		if got != want {
			t.Fatalf("%s: emitter diverges from the Builder reference:\n%s\n--- reference ---\n%s",
				sys.name, got, want)
		}
		if emitted {
			converters++
		}
	}
	// The corpus must actually exercise emission, not just verdicts.
	t.Logf("%d of %d systems produced a converter", converters, len(systems))
	if converters < len(systems)/4 {
		t.Fatalf("only %d of %d systems produced a converter", converters, len(systems))
	}
}

// TestEmitWallIsItsOwnLayer pins emission as a measured layer: a derivation
// that yields a converter reports a nonzero EmitWall, and the three phase
// walls together never exceed the wall time the caller measures around
// DeriveEnvContext.
func TestEmitWallIsItsOwnLayer(t *testing.T) {
	f := specgen.Ring(3)
	env, err := compose.LazyMany(f.Components...)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := core.DeriveEnvContext(context.Background(), f.Service, env, core.Options{OmitVacuous: true})
	wall := time.Since(t0)
	if err != nil {
		t.Fatalf("DeriveEnvContext: %v", err)
	}
	if res.Converter == nil {
		t.Fatal("ring(3) should yield a converter")
	}
	m := res.Stats.Metrics
	if m.EmitWall <= 0 {
		t.Fatalf("EmitWall = %v, want > 0", m.EmitWall)
	}
	if sum := m.SafetyWall + m.ProgressWall + m.EmitWall; sum > wall {
		t.Fatalf("safety %v + progress %v + emit %v = %v exceeds the caller's wall %v",
			m.SafetyWall, m.ProgressWall, m.EmitWall, sum, wall)
	}
}
