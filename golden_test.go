package protoquot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/protocols"
)

// loadSpecDir parses every .spec file under specs/.
func loadSpecDir(t *testing.T) map[string]*Spec {
	t.Helper()
	paths, err := filepath.Glob("specs/*.spec")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no spec files found: %v", err)
	}
	out := make(map[string]*Spec, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		specs, err := ParseSpecs(f)
		f.Close()
		if err != nil {
			t.Fatalf("parse %s: %v", p, err)
		}
		if len(specs) != 1 {
			t.Fatalf("%s: expected one spec, found %d", p, len(specs))
		}
		out[strings.TrimSuffix(filepath.Base(p), ".spec")] = specs[0]
	}
	return out
}

// deriveOutcome captures everything the golden comparison cares about.
type deriveOutcome struct {
	converter string
	stats     Stats
	exists    bool
	err       string
}

func deriveWith(a *Spec, bs []*Spec, opts Options) deriveOutcome {
	res, err := core.DeriveRobust(a, bs, opts)
	return outcomeOf(res, err)
}

// deriveLazyWith derives through the demand-driven pipeline —
// compose.LazyMany feeding core.DeriveEnv, with the safety phase driving
// environment exploration and no *spec.Spec environment in between. The
// engine contract is that this path is bit-identical to deriveWith over the
// eager composition of the same components. Composite state ids under this
// pipeline are numbered in demand order, but everything the outcome captures — converter names and structure,
// statistics, failure messages — is invariant under that renaming, so the
// comparison against the eager pipeline is still exact.
func deriveLazyWith(a *Spec, comps []*Spec, opts Options) deriveOutcome {
	x, err := compose.LazyMany(comps...)
	if err != nil {
		return deriveOutcome{err: err.Error()}
	}
	res, err := core.DeriveEnv(a, x, opts)
	return outcomeOf(res, err)
}

func outcomeOf(res *core.Result, err error) deriveOutcome {
	o := deriveOutcome{}
	if err != nil {
		o.err = err.Error()
	}
	if res != nil {
		o.exists = res.Exists
		o.stats = res.Stats
		o.stats.Metrics = Metrics{} // wall times legitimately differ per run
		if res.Converter != nil {
			o.converter = res.Converter.Format()
		}
	}
	return o
}

// TestGoldenParallelEqualsSequentialOnSpecs derives every ordered pair of
// machines under specs/ (service candidate × environment candidate) through
// the eager and the demand-driven pipeline, asserting bit-identical
// outcomes — converter state names and edges, statistics, and failure
// messages alike. Most pairs are mutually incompatible machines (the files
// are individual protocol halves and derived converters, not composed
// environments), so the bulk of the sweep pins down identical precondition
// and nonexistence errors; the successful-derivation path is covered by
// TestGoldenParallelComposedSystems below.
func TestGoldenParallelEqualsSequentialOnSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("derives hundreds of spec pairs")
	}
	specs := loadSpecDir(t)
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	// MaxStates bounds pathological pairs; both pipelines must hit the
	// bound at the identical point.
	const bound = 3000
	reached := 0
	for _, an := range names {
		for _, bn := range names {
			if an == bn {
				continue
			}
			a, b := specs[an], specs[bn]
			seq := deriveWith(a, []*Spec{b}, Options{MaxStates: bound})
			lz := deriveLazyWith(a, []*Spec{b}, Options{MaxStates: bound})
			if seq != lz {
				t.Errorf("%s / %s: lazy pipeline differs from spec pipeline:\nspec: %+v\nlazy: %+v",
					an, bn, abbreviate(seq), abbreviate(lz))
			}
			if seq.exists || strings.Contains(seq.err, "no converter exists") {
				reached++
			}
		}
	}
	if reached == 0 {
		t.Error("no spec pair reached the derivation phases; the golden sweep is vacuous")
	}
	t.Logf("compared %d ordered pairs, %d reached the quotient algorithm", len(names)*(len(names)-1), reached)
}

// TestGoldenParallelComposedSystems runs the same spec-vs-lazy comparison
// on the paper's composed conversion configurations, where derivations
// succeed and produce converters with hundreds of states.
func TestGoldenParallelComposedSystems(t *testing.T) {
	cases := []struct {
		name string
		a    *Spec
		b    *Spec
		opts Options
	}{
		{name: "symmetric-safety", a: protocols.Service(), b: protocols.SymmetricB(),
			opts: Options{SafetyOnly: true, OmitVacuous: true}},
		{name: "symmetric-noquotient", a: protocols.Service(), b: protocols.SymmetricB(),
			opts: Options{OmitVacuous: true}},
		{name: "weak-service", a: protocols.AtLeastOnceService(), b: protocols.SymmetricB(),
			opts: Options{OmitVacuous: true}},
		{name: "colocated", a: protocols.Service(), b: protocols.ColocatedB(), opts: Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := deriveWith(tc.a, []*Spec{tc.b}, tc.opts)
			if lz := deriveLazyWith(tc.a, []*Spec{tc.b}, tc.opts); seq != lz {
				t.Errorf("lazy pipeline differs from spec pipeline:\nspec: %+v\nlazy: %+v",
					abbreviate(seq), abbreviate(lz))
			}
		})
	}
}

// TestGoldenIndexedPaperComponents derives the paper's conversion systems
// from their raw component lists through both composition pipelines —
// compose.Many feeding Derive against the index-space compose.LazyMany
// feeding DeriveEnv — and requires bit-identical outcomes. This is the
// multi-component counterpart of the single-environment comparisons above:
// here the index-space composition actually exercises tuple interning and
// pairwise rendezvous.
func TestGoldenIndexedPaperComponents(t *testing.T) {
	winComps, err := protocols.WindowToNSBComponents(protocols.WindowConfig{Window: 2, Modulus: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		a     *Spec
		comps []*Spec
	}{
		{name: "symmetric", a: protocols.Service(), comps: protocols.SymmetricBComponents()},
		{name: "colocated", a: protocols.Service(), comps: protocols.ColocatedBComponents()},
		{name: "figure18-transport", a: protocols.CST(), comps: protocols.TransportB18Components()},
		{name: "window2-ns", a: protocols.WindowService(2), comps: winComps},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "window2-ns" {
				t.Skip("multi-second derivation")
			}
			b, err := Compose(tc.comps...)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{OmitVacuous: true}
			spec := deriveWith(tc.a, []*Spec{b}, opts)
			lz := deriveLazyWith(tc.a, tc.comps, opts)
			if spec != lz {
				t.Errorf("lazy pipeline differs from spec pipeline:\nspec: %+v\nlazy: %+v",
					abbreviate(spec), abbreviate(lz))
			}
		})
	}
}

func abbreviate(o deriveOutcome) deriveOutcome {
	if len(o.converter) > 200 {
		o.converter = o.converter[:200] + "…"
	}
	return o
}

// TestGoldenParallelWindowProtocols pushes run-to-run determinism through
// the heavier generated workloads the benchmarks use: two derivations of
// the same inputs must agree bit for bit, and both must produce a
// converter.
func TestGoldenParallelWindowProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second derivation")
	}
	win, err := protocols.WindowToNSB(protocols.WindowConfig{Window: 2, Modulus: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		a    *Spec
		b    *Spec
	}{
		{name: "window2-ns", a: protocols.WindowService(2), b: win},
		{name: "figure18-transport", a: protocols.CST(), b: protocols.TransportB18()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := deriveWith(tc.a, []*Spec{tc.b}, Options{OmitVacuous: true})
			again := deriveWith(tc.a, []*Spec{tc.b}, Options{OmitVacuous: true})
			if seq != again {
				t.Errorf("repeated run differs:\nfirst:  %+v\nsecond: %+v",
					abbreviate(seq), abbreviate(again))
			}
			if !seq.exists {
				t.Fatalf("expected a converter: %s", seq.err)
			}
		})
	}
}
