package core

import (
	"fmt"
	"strings"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/specgen"
)

// numIntEvents mirrors the deriver's Int = Σ_B − Ext computation for a
// specgen family: the per-batch MaxStates overshoot bound is stated in
// units of batch × |Int|.
func numIntEvents(t *testing.T, f specgen.Family) int {
	t.Helper()
	lz := compose.MustLazyMany(f.Components...)
	ext := make(map[string]bool)
	for _, e := range f.Service.Alphabet() {
		ext[string(e)] = true
	}
	n := 0
	for _, e := range lz.Alphabet() {
		if !ext[string(e)] {
			n++
		}
	}
	if n == 0 {
		t.Fatalf("family %s has no Int events", f.Name)
	}
	return n
}

// abortedStates parses the state count out of the MaxStates abort message.
func abortedStates(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		t.Fatal("expected a MaxStates abort, got nil error")
	}
	idx := strings.Index(err.Error(), "aborted at ")
	if idx < 0 {
		t.Fatalf("unexpected abort message: %v", err)
	}
	var n int
	if _, serr := fmt.Sscanf(err.Error()[idx:], "aborted at %d states", &n); serr != nil {
		t.Fatalf("cannot parse abort message %q: %v", err, serr)
	}
	return n
}

// TestMaxStatesAbortsPromptly pins the per-batch enforcement contract: a
// derivation over the configured cap stops within one merge batch of it —
// at most cap + safetyMergeBatch × |Int| states — rather than finishing
// whatever frontier level it was on (the old per-level check let a single
// huge level run arbitrarily far past the cap).
func TestMaxStatesAbortsPromptly(t *testing.T) {
	f := specgen.Chain(7)
	ne := numIntEvents(t, f)
	const cap = 2

	derive := func() error {
		lz := compose.MustLazyMany(f.Components...)
		_, err := DeriveEnv(f.Service, lz, Options{OmitVacuous: true, MaxStates: cap})
		return err
	}

	base := derive()
	n := abortedStates(t, base)
	if n <= cap {
		t.Errorf("aborted at %d states, within the cap %d — should not abort", n, cap)
	}
	if limit := cap + safetyMergeBatch*ne; n > limit {
		t.Errorf("aborted at %d states; per-batch enforcement bounds the overshoot at %d", n, limit)
	}
	if !strings.Contains(base.Error(), fmt.Sprintf("exceeded MaxStates=%d", cap)) {
		t.Errorf("abort message missing the cap: %v", base)
	}

	// A merge batch smaller than a frontier level tightens the bound the
	// same way: the abort fires after the batch that crossed the cap, so
	// the overshoot shrinks with the batch, independent of level width.
	saved := safetyMergeBatch
	safetyMergeBatch = 1
	defer func() { safetyMergeBatch = saved }()
	n1 := abortedStates(t, derive())
	if limit := cap + 1*ne; n1 > limit {
		t.Errorf("batch=1: aborted at %d states; bound is %d", n1, limit)
	}
}
