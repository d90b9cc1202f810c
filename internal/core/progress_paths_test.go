package core

import (
	"testing"

	"protoquot/internal/spec"
)

// deriveOutcome captures the full bit-identity surface of a derivation:
// converter text, stats (wall times zeroed), existence, and error string.
func deriveOutcome(t *testing.T, a *spec.Spec, bs []*spec.Spec, opts Options) (string, Stats, bool, string) {
	t.Helper()
	res, err := DeriveRobust(a, bs, opts)
	var text, errs string
	var stats Stats
	var exists bool
	if err != nil {
		errs = err.Error()
	}
	if res != nil {
		exists = res.Exists
		stats = res.Stats
		stats.Metrics = Metrics{} // wall times legitimately differ
		if res.Converter != nil {
			text = res.Converter.Format()
		}
	}
	return text, stats, exists, errs
}

// assertSweepPathsAgree derives the same system three ways — default path
// selection, narrow forced (wideColumnLimit = 0), and wide-with-memory-bail
// (wideMemWords = 0, which exercises the wide path's fallback) — and
// asserts all three runs are bit-identical.
func assertSweepPathsAgree(t *testing.T, a *spec.Spec, bs []*spec.Spec, opts Options) {
	t.Helper()
	force := func(cols, words int, f func()) {
		savedCols, savedWords := wideColumnLimit, wideMemWords
		wideColumnLimit, wideMemWords = cols, words
		defer func() { wideColumnLimit, wideMemWords = savedCols, savedWords }()
		f()
	}
	text, stats, exists, errs := deriveOutcome(t, a, bs, opts)
	force(0, wideMemWords, func() {
		nt, ns, ne, nerr := deriveOutcome(t, a, bs, opts)
		if nt != text || ns != stats || ne != exists || nerr != errs {
			t.Errorf("narrow path diverges from default:\n%s\nstats %+v err %q\n--- vs ---\n%s\nstats %+v err %q",
				nt, ns, nerr, text, stats, errs)
		}
	})
	force(wideColumnLimit, 0, func() {
		nt, ns, ne, nerr := deriveOutcome(t, a, bs, opts)
		if nt != text || ns != stats || ne != exists || nerr != errs {
			t.Errorf("memory-bail path diverges from default:\n%s\nstats %+v err %q\n--- vs ---\n%s\nstats %+v err %q",
				nt, ns, nerr, text, stats, errs)
		}
	})
}

func TestNarrowWideSweepsAgree(t *testing.T) {
	// Iterative progress removal: two sweeps, second one incremental.
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1")
	b.Ext("b1", "x", "b2").Ext("b2", "del", "b0")
	b.Ext("b1", "y", "b3").Ext("b3", "z", "b4")
	assertSweepPathsAgree(t, altService(t), []*spec.Spec{build(t, b)}, Options{})

	// Progress-phase nonexistence: the blamed pair and witness plumbing
	// must not depend on the sweep path either.
	doomed := build(t, spec.NewBuilder("B").Event("del").
		Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2"))
	assertSweepPathsAgree(t, altService(t), []*spec.Spec{doomed}, Options{})

	// Robust derivation over two variants, with internal moves — τ-closure
	// cache hits and combo redirects exercised across variants.
	mk := func(lossy bool) *spec.Spec {
		bb := spec.NewBuilder("B")
		bb.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2").Ext("b2", "del", "b0")
		bb.Ext("b1", "y", "b0").Ext("b2", "y", "b2")
		if lossy {
			bb.Int("b1", "b0")
		}
		return build(t, bb)
	}
	assertSweepPathsAgree(t, altService(t), []*spec.Spec{mk(false), mk(true)}, Options{})
}
