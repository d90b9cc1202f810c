package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// TestDeriveContextCancelMidProgressUnderLoad runs many derivations of the
// same system concurrently — the daemon's steady state — and cancels half of
// them from inside the progress phase, each at a different point in the
// sweep. Every canceled run must fail with context.Canceled naming the
// progress phase; every untouched run, racing against the cancellations on
// shared (immutable) specs, must still produce the reference converter
// byte for byte.
func TestDeriveContextCancelMidProgressUnderLoad(t *testing.T) {
	f := specgen.ChainDrop(4) // multi-sweep progress phase: 7 states die in sweep 1
	b, err := compose.Many(f.Components...)
	if err != nil {
		t.Fatal(err)
	}

	// Reference outcome, derived alone.
	ref, err := Derive(f.Service, b, Options{})
	if err != nil {
		t.Fatalf("reference derivation: %v", err)
	}
	if ref.Stats.ProgressIterations < 2 || ref.Stats.RemovedStates == 0 {
		t.Fatalf("family no longer exercises a multi-sweep progress phase: %+v", ref.Stats)
	}
	refText := ref.Converter.Format()

	const pairs = 4 // each pair = one canceled run + one clean run
	var wg sync.WaitGroup
	var cleanMismatch atomic.Int32
	cancelErrs := make([]error, pairs)
	progressEvents := make([]int32, pairs)

	for i := 0; i < pairs; i++ {
		i := i
		// Cancel at the i-th progress-phase event: the iteration summary,
		// then each state removal in turn — so every run dies at a different
		// point of the same sweep. The cancellation is observed at the next
		// iteration's context check.
		wg.Add(2)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen atomic.Int32
			opts := Options{Trace: func(ev TraceEvent) {
				if ev.Phase == "progress" && int(seen.Add(1)) == i+1 {
					cancel()
				}
			}}
			res, err := DeriveContext(ctx, f.Service, b, opts)
			if res != nil {
				err = fmt.Errorf("canceled derivation returned a result (err=%v)", err)
			}
			cancelErrs[i] = err
			progressEvents[i] = seen.Load()
		}()
		go func() {
			defer wg.Done()
			res, err := DeriveContext(context.Background(), f.Service, b, Options{})
			if err != nil || res.Converter.Format() != refText {
				t.Errorf("clean run perturbed by concurrent cancellations: err=%v", err)
				cleanMismatch.Add(1)
			}
		}()
	}
	wg.Wait()

	for i, err := range cancelErrs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("run %d: want context.Canceled in chain, got %v", i, err)
			continue
		}
		if !strings.Contains(err.Error(), "progress phase canceled") {
			t.Errorf("run %d: error should name the progress phase: %v", i, err)
		}
		if progressEvents[i] < int32(i+1) {
			t.Errorf("run %d: canceled after %d progress events, expected at least %d",
				i, progressEvents[i], i+1)
		}
	}
	if n := cleanMismatch.Load(); n > 0 {
		t.Fatalf("%d clean run(s) diverged from the reference converter", n)
	}
}

// TestDeriveRobustContextCancelSharedAcrossVariants: one context governs a
// robust derivation over several variants; canceling during the progress
// phase of the combined run must abort the whole derivation, not just one
// variant's slice of it.
func TestDeriveRobustContextCancelSharedAcrossVariants(t *testing.T) {
	f := specgen.ChainDrop(3)
	b1, err := compose.Many(f.Components...)
	if err != nil {
		t.Fatal(err)
	}
	b2 := b1.Minimize() // a language-equal second variant
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := Options{Trace: func(ev TraceEvent) {
		if ev.Phase == "progress" {
			once.Do(cancel)
		}
	}}
	res, err := DeriveRobustContext(ctx, f.Service, []*spec.Spec{b1, b2}, opts)
	if res != nil {
		t.Error("canceled robust derivation returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
