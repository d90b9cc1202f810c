package compose

import (
	"fmt"
	"strings"
	"testing"

	"protoquot/internal/spec"
)

// twoState builds a minimal two-state machine with a single private
// external event, for product-size stress tests.
func twoState(t *testing.T, i int) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder(fmt.Sprintf("m%d", i))
	ev := spec.Event(fmt.Sprintf("e%d", i))
	b.Event(ev)
	b.Init("s0")
	b.State("s0")
	b.State("s1")
	b.Ext("s0", ev, "s1")
	b.Ext("s1", ev, "s0")
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompileRejectsZeroStateComponent pins the overflow-guard fix: the old
// radix check computed (1<<63)/n and panicked with a division by zero when
// a zero-value component (NumStates() == 0) slipped in. It must now be a
// clean error from the composition entry point.
func TestCompileRejectsZeroStateComponent(t *testing.T) {
	_, err := LazyMany(twoState(t, 0), new(spec.Spec))
	if err == nil {
		t.Fatal("composing a zero-state component succeeded, want error")
	}
	if !strings.Contains(err.Error(), "no states") {
		t.Fatalf("error = %q, want a 'no states' diagnostic", err)
	}
}

// TestCompileRadixOverflowFallsBackToStringKeys drives the product count
// past uint64 (65 two-state components = 2^65) and checks the engines still
// compose correctly on the string-keyed intern path.
func TestCompileRadixOverflowFallsBackToStringKeys(t *testing.T) {
	comps := make([]*spec.Spec, 65)
	for i := range comps {
		comps[i] = twoState(t, i)
	}
	tb, err := compileComponents(comps)
	if err != nil {
		t.Fatal(err)
	}
	if tb.radixOK {
		t.Fatalf("radixOK = true for a 2^65 product, want overflow fallback")
	}
	lz, err := LazyMany(comps...)
	if err != nil {
		t.Fatal(err)
	}
	ext, intl := lz.Rows(lz.Init())
	if len(ext) != 65 || len(intl) != 0 {
		t.Fatalf("init rows: %d ext / %d intl edges, want 65 / 0", len(ext), len(intl))
	}
	// Each private event flips exactly one component, and re-interning the
	// flipped-back tuple must rediscover state 0 — id stability under the
	// string-key path.
	st := ext[0].To
	ext2, _ := lz.Rows(spec.State(st))
	back := false
	for _, ed := range ext2 {
		if ed.To == 0 {
			back = true
		}
	}
	if !back {
		t.Fatalf("flipping e0 twice did not return to the initial composite state")
	}
}

// TestPagedInternAboveOldDenseLimit exercises the paged direct-mapped
// intern on a product (4^13 = 2^26) that exceeds the pre-paging 2^22 flat
// array limit: pages must be allocated only for the touched key ranges, and
// ids must be stable across re-interning.
func TestPagedInternAboveOldDenseLimit(t *testing.T) {
	comps := make([]*spec.Spec, 13)
	for i := range comps {
		b := spec.NewBuilder(fmt.Sprintf("q%d", i))
		ev := spec.Event(fmt.Sprintf("f%d", i))
		b.Event(ev)
		b.Init("s0")
		for s := 0; s < 4; s++ {
			b.State(fmt.Sprintf("s%d", s))
		}
		for s := 0; s < 4; s++ {
			b.Ext(fmt.Sprintf("s%d", s), ev, fmt.Sprintf("s%d", (s+1)%4))
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = s
	}
	tb, err := compileComponents(comps)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.radixOK || tb.product != 1<<26 {
		t.Fatalf("radixOK=%v product=%d, want radix key over 2^26", tb.radixOK, tb.product)
	}
	numStates := make([]int, len(comps))
	for i, c := range comps {
		numStates[i] = c.NumStates()
	}
	ti := newTupleIntern(tb, numStates)
	if ti.pages == nil {
		t.Fatalf("product 2^26 did not select the paged dense intern")
	}
	tuple := make([]int32, len(comps))
	seen := map[int32]bool{}
	next := int32(0)
	for trial := 0; trial < 200; trial++ {
		for i := range tuple {
			tuple[i] = int32((trial * (i + 3)) % 4)
		}
		id, isNew := ti.internKey(ti.key(tuple), next)
		if isNew {
			if seen[id] {
				t.Fatalf("trial %d: new tuple assigned already-used id %d", trial, id)
			}
			seen[id] = true
			next++
		}
		// Re-interning the same tuple must return the same id without
		// claiming a new one.
		id2, isNew2 := ti.internKey(ti.key(tuple), next)
		if isNew2 || id2 != id {
			t.Fatalf("trial %d: re-intern gave (id=%d, new=%v), want (%d, false)", trial, id2, isNew2, id)
		}
	}
	touched := 0
	for _, pg := range ti.pages {
		if pg != nil {
			touched++
		}
	}
	if touched == 0 || touched == len(ti.pages) {
		t.Fatalf("touched %d of %d pages; want a proper subset (pages allocate on demand)", touched, len(ti.pages))
	}
}

// tokenChain builds n three-state components that pass one token down a
// chain: component i idles in "i", takes the token from its left neighbor
// on pass<i-1>, sees its private look<i> while holding it, moves internally
// from "h" to "w", and hands the token right on pass<i> (the last one
// signals done instead). Only 2n+1 composite states are reachable, while
// the product is 3^n, so the chain reaches any intern tier cheaply — and
// so does the left fold Many, whose prefixes stay as small.
func tokenChain(t *testing.T, n int) []*spec.Spec {
	t.Helper()
	comps := make([]*spec.Spec, n)
	for i := range comps {
		b := spec.NewBuilder(fmt.Sprintf("t%d", i))
		// Declared so idle is the highest state index: handing the token
		// on moves one component's digit up and the other's down.
		b.State("h")
		b.State("w")
		b.State("i")
		if i == 0 {
			b.Init("h")
		} else {
			b.Init("i")
			b.Ext("i", spec.Event(fmt.Sprintf("pass%d", i-1)), "h")
		}
		b.Ext("h", spec.Event(fmt.Sprintf("look%d", i)), "h")
		b.Int("h", "w")
		if i < n-1 {
			b.Ext("w", spec.Event(fmt.Sprintf("pass%d", i)), "i")
		} else {
			b.Ext("w", "done", "i")
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = s
	}
	return comps
}

// TestLazyMatchesManyHashTier checks the open-addressing tier against the
// left fold: 3^19 > 2^30 puts the product past the paged array, and every
// successor key comes from its parent's key plus one or two digit moves.
func TestLazyMatchesManyHashTier(t *testing.T) {
	comps := tokenChain(t, 19)
	lz := assertLazyMatchesMany(t, comps...)
	if !lz.ti.radixOK || lz.ti.pages != nil {
		t.Fatalf("radixOK=%v paged=%v for a 3^19 product, want the hash tier", lz.ti.radixOK, lz.ti.pages != nil)
	}
	if got := lz.ti.hashed.Len(); got != 2*19+1 || got != lz.NumStates() {
		t.Fatalf("hash tier holds %d keys for %d states, want %d", got, lz.NumStates(), 2*19+1)
	}
}

// TestLazyMatchesManyStringTier is the same check past uint64: 3^41 > 2^64
// leaves only the string keys.
func TestLazyMatchesManyStringTier(t *testing.T) {
	comps := tokenChain(t, 41)
	lz := assertLazyMatchesMany(t, comps...)
	if lz.ti.radixOK {
		t.Fatalf("radixOK = true for a 3^41 product, want the string tier")
	}
	if got := len(lz.ti.seenS); got != 2*41+1 {
		t.Fatalf("string tier holds %d keys, want %d", got, 2*41+1)
	}
}
