package protosmith

import (
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
)

// TestShardedInternAcrossSeeds drives the safety phase's intern table
// through the randomized corpus: 50 generated systems, each derived through
// the demand-driven pipeline, must reproduce the eager pipeline's outcome
// exactly — converter, verdict, stats, and error alike — although the lazy
// run interns pair sets over composite states numbered in demand order.
// This is the fuzzed counterpart of core's TestShardedInternDifferential,
// which forces the engine knobs on fixed systems.
func TestShardedInternAcrossSeeds(t *testing.T) {
	opts := core.Options{OmitVacuous: true, MaxStates: 50000}
	for seed := int64(1); seed <= 50; seed++ {
		sys := Generate(seed, DefaultKnobs())
		if err := sys.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := compose.Many(sys.Components...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lz, err := compose.LazyMany(sys.Components...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := outcomeOf(core.Derive(sys.Service, b, opts))
		if got := outcomeOf(core.DeriveEnv(sys.Service, lz, opts)); got != ref {
			t.Errorf("seed %d: lazy pipeline diverges:\n%s\n--- vs spec pipeline ---\n%s", seed, got, ref)
		}
	}
}
