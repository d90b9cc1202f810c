package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"protoquot/internal/protocols"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// withSafetyKnobs runs f with the safety-phase package knobs overridden,
// restoring them afterwards. Every combination must be invisible in the
// derivation outcome: the knobs steer storage layout and skipped work, not
// results.
func withSafetyKnobs(chunkWords, batch int, memo, mask bool, f func()) {
	savedChunk, savedBatch := pairArenaChunkWords, safetyMergeBatch
	savedMemo, savedMask := closureMemoEnabled, maskClosureEnabled
	pairArenaChunkWords, safetyMergeBatch = chunkWords, batch
	closureMemoEnabled, maskClosureEnabled = memo, mask
	defer func() {
		pairArenaChunkWords, safetyMergeBatch = savedChunk, savedBatch
		closureMemoEnabled, maskClosureEnabled = savedMemo, savedMask
	}()
	f()
}

// safetyLeg is one setting of the safety-phase knobs.
type safetyLeg struct {
	name  string
	chunk int
	batch int
	memo  bool
	mask  bool
}

// safetyLegs lists the knob settings the differential suites run: the
// defaults, tiny arena chunks (every chunk-boundary path), a tiny merge
// batch (many merges per level), the closure memo disabled, and the scalar
// closure forced.
func safetyLegs() []safetyLeg {
	return []safetyLeg{
		{"default", pairArenaChunkWords, safetyMergeBatch, true, true},
		{"tiny-chunk", 4, safetyMergeBatch, true, true},
		{"tiny-batch", pairArenaChunkWords, 2, true, true},
		{"no-memo", pairArenaChunkWords, safetyMergeBatch, false, true},
		{"scalar-closure", pairArenaChunkWords, safetyMergeBatch, true, false},
	}
}

// TestShardedInternDifferential is the bit-identity suite for the safety
// phase's storage and closure engines: the paper's conversion systems,
// small specgen families, and hand-built systems covering iterative
// progress, progress-phase nonexistence and robust variants, derived under
// each safetyLegs setting, must reproduce the reference outcome exactly:
// converter text, stats, existence verdict, and error string.
func TestShardedInternDifferential(t *testing.T) {
	type system struct {
		name string
		a    *spec.Spec
		bs   []*spec.Spec
		opts Options
	}
	omit := Options{OmitVacuous: true}
	systems := []system{
		{"paper-symmetric", protocols.Service(), []*spec.Spec{protocols.SymmetricB()}, omit},
		{"paper-weak-service", protocols.AtLeastOnceService(), []*spec.Spec{protocols.SymmetricB()}, omit},
		{"paper-colocated", protocols.Service(), []*spec.Spec{protocols.ColocatedB()}, omit},
	}
	for _, fn := range []string{"chain(4)", "chaindrop(4)", "ring(3)"} {
		fam, err := specgen.ParseFamily(fn)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		systems = append(systems, system{fam.Name, fam.Service, fam.Components, omit})
	}

	systems = append(systems, system{"relay", altService(t), []*spec.Spec{relayB(t)}, Options{}})

	// Iterative progress removal, under each option that changes the
	// safety or progress phase's output.
	iter := spec.NewBuilder("B")
	iter.Init("b0").Ext("b0", "acc", "b1")
	iter.Ext("b1", "x", "b2").Ext("b2", "del", "b0")
	iter.Ext("b1", "y", "b3").Ext("b3", "z", "b4")
	iterB := build(t, iter)
	systems = append(systems,
		system{"iterative", altService(t), []*spec.Spec{iterB}, Options{}},
		system{"iterative-omit-vacuous", altService(t), []*spec.Spec{iterB}, omit},
		system{"iterative-safety-only", altService(t), []*spec.Spec{iterB}, Options{SafetyOnly: true}},
	)

	// Progress-phase nonexistence: the error string carries the verdict;
	// the witness is compared separately below.
	doomed := build(t, spec.NewBuilder("B").Event("del").
		Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2"))
	systems = append(systems, system{"no-quotient", altService(t), []*spec.Spec{doomed}, Options{}})

	// Two environment variants: with and without a lossy shortcut.
	mk := func(lossy bool) *spec.Spec {
		b := spec.NewBuilder("B")
		b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2").Ext("b2", "del", "b0")
		b.Ext("b1", "y", "b0").Ext("b2", "y", "b2")
		if lossy {
			b.Int("b1", "b0")
		}
		return build(t, b)
	}
	systems = append(systems, system{"robust", altService(t), []*spec.Spec{mk(false), mk(true)}, Options{}})

	witness := func(sys system) string {
		_, err := DeriveRobust(sys.a, sys.bs, sys.opts)
		var nq *NoQuotientError
		if !errors.As(err, &nq) {
			return ""
		}
		return fmt.Sprint(nq.Phase(), nq.Witness())
	}

	for _, sys := range systems {
		refText, refStats, refExists, refErr := deriveOutcome(t, sys.a, sys.bs, sys.opts)
		refWitness := witness(sys)
		if sys.name == "no-quotient" && (refExists || !strings.HasPrefix(refWitness, "progress[")) {
			t.Fatalf("no-quotient fixture should fail in the progress phase with a witness, got %q err %q", refWitness, refErr)
		}
		for _, lg := range safetyLegs() {
			withSafetyKnobs(lg.chunk, lg.batch, lg.memo, lg.mask, func() {
				text, stats, exists, errs := deriveOutcome(t, sys.a, sys.bs, sys.opts)
				if text != refText || stats != refStats || exists != refExists || errs != refErr {
					t.Errorf("%s leg=%s diverges from reference:\n%s\nstats %+v exists=%v err %q\n--- vs ---\n%s\nstats %+v exists=%v err %q",
						sys.name, lg.name,
						text, stats, exists, errs, refText, refStats, refExists, refErr)
				}
				if w := witness(sys); w != refWitness {
					t.Errorf("%s leg=%s witness %q, reference %q", sys.name, lg.name, w, refWitness)
				}
			})
		}
	}
}
