package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"protoquot/internal/spec"
)

func TestDeriveContextCancelImmediate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DeriveContext(ctx, altService(t), relayB(t), Options{})
	if res != nil {
		t.Errorf("canceled derivation returned a result: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if !strings.Contains(err.Error(), "safety phase canceled") {
		t.Errorf("error should name the canceled phase: %v", err)
	}
}

func TestDeriveContextCancelMidSafety(t *testing.T) {
	// Cancel from inside the derivation, via the Trace callback, when the
	// first frontier level is announced: the check at the next level must
	// abort the phase.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	levels := 0
	opts := Options{Trace: func(ev TraceEvent) {
		if ev.Phase == "safety" && ev.Detail == "" {
			levels++
			cancel()
		}
	}}
	res, err := DeriveContext(ctx, altService(t), relayB(t), opts)
	if res != nil {
		t.Errorf("canceled derivation returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if levels != 1 {
		t.Errorf("expected the derivation to stop after the first level, saw %d level events", levels)
	}
}

func TestDeriveContextCancelMidProgress(t *testing.T) {
	// Cancel once the safety phase completes (its summary event carries a
	// Detail); the progress phase checks the context per sweep.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Trace: func(ev TraceEvent) {
		if ev.Phase == "safety" && ev.Detail != "" {
			cancel()
		}
	}}
	res, err := DeriveContext(ctx, altService(t), relayB(t), opts)
	if res != nil {
		t.Errorf("canceled derivation returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if !strings.Contains(err.Error(), "progress phase canceled") {
		t.Errorf("error should name the canceled phase: %v", err)
	}
}

func TestDeriveMaxStatesParallelIdentical(t *testing.T) {
	// The MaxStates abort must trigger with the identical message whatever
	// the storage and closure knobs, since they change neither the merge
	// order nor the batch boundaries the cap is checked at.
	a, b := altService(t), relayB(t)
	_, err1 := Derive(a, b, Options{MaxStates: 1})
	if err1 == nil {
		t.Fatal("MaxStates=1 should abort")
	}
	if !strings.Contains(err1.Error(), "exceeded MaxStates=1") {
		t.Errorf("unexpected abort message: %v", err1)
	}
	withSafetyKnobs(4, safetyMergeBatch, false, false, func() {
		_, err2 := Derive(a, b, Options{MaxStates: 1})
		if err2 == nil || err2.Error() != err1.Error() {
			t.Errorf("abort differs with tiny chunks, no memo, scalar closure:\n  %v\n  %v", err2, err1)
		}
	})
}

func TestNoQuotientErrorDiagnostic(t *testing.T) {
	// Safety-phase nonexistence carries the phase and a witness event.
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "bad", "b1").Ext("b1", "acc", "b2").Ext("b0", "x", "b0")
	// Make "bad" external (in Σ_A) so B can emit it while A forbids it.
	a2 := build(t, spec.NewBuilder("S").Init("v0").Ext("v0", "acc", "v1").Event("bad"))
	_, err := Derive(a2, build(t, b), Options{})
	var nq *NoQuotientError
	if !errors.As(err, &nq) {
		t.Fatalf("want NoQuotientError, got %v", err)
	}
	if nq.Phase() != "safety" {
		t.Errorf("Phase() = %q, want safety", nq.Phase())
	}
	if len(nq.Witness()) != 1 || nq.Witness()[0] != "bad" {
		t.Errorf("Witness() = %v, want [bad]", nq.Witness())
	}

	// Progress-phase nonexistence names its phase and carries a trace to
	// the blamed configuration (Theorem 2's stuck run prefix).
	bDoomed := build(t, spec.NewBuilder("B").Event("del").
		Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2"))
	_, err = Derive(altService(t), bDoomed, Options{})
	if !errors.As(err, &nq) {
		t.Fatalf("want NoQuotientError, got %v", err)
	}
	if nq.Phase() != "progress" {
		t.Errorf("Phase() = %q, want progress", nq.Phase())
	}
	if nq.Witness() == nil {
		t.Errorf("progress nonexistence should carry a witness trace")
	}
}

func TestTraceAndLogAdapter(t *testing.T) {
	// LogAdapter must keep producing exactly the legacy narration lines,
	// and a Trace that also forwards to it must see both the structured
	// level events and the summaries.
	var buf bytes.Buffer
	var events []TraceEvent
	logTrace := LogAdapter(&buf)
	res, err := Derive(altService(t), relayB(t), Options{
		Trace: func(ev TraceEvent) { events = append(events, ev); logTrace(ev) },
	})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	out := buf.String()
	want := "safety phase: 2 states, 2 transitions, 5 tracked (a,b) pairs\n" +
		"progress phase: iteration 1 removed nothing; fixpoint\n"
	if out != want {
		t.Errorf("Log output changed:\n got %q\nwant %q", out, want)
	}
	var levels, summaries int
	for _, ev := range events {
		if ev.Detail == "" && ev.Phase == "safety" {
			levels++
		}
		if ev.Detail != "" {
			summaries++
		}
	}
	if levels < 2 {
		t.Errorf("expected at least two frontier-level events, got %d", levels)
	}
	if summaries != 2 {
		t.Errorf("expected 2 summary events, got %d", summaries)
	}
	m := res.Stats.Metrics
	if m.StatesExpanded != res.Stats.SafetyStates {
		t.Errorf("StatesExpanded = %d, want %d", m.StatesExpanded, res.Stats.SafetyStates)
	}
	if m.InternLookups == 0 || m.InternHits == 0 {
		t.Errorf("interning metrics not populated: %+v", m)
	}
	if r := m.InternHitRate(); r <= 0 || r > 1 {
		t.Errorf("InternHitRate = %v", r)
	}
	if m.PeakFrontier < 1 || m.SafetyLevels < 2 {
		t.Errorf("frontier metrics not populated: %+v", m)
	}
}
