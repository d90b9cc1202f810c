package core

import (
	"fmt"
	"slices"

	"protoquot/internal/spec"
)

// Prune removes "useless" portions of a converter — the dotted boxes of the
// paper's Figure 14: behavior that is harmless (B‖C still satisfies A
// without it) but contributes nothing, such as cycles that only recover via
// message loss. The paper notes such removal "is computationally expensive
// and is best done by hand"; Prune automates a greedy version, re-verifying
// the whole system after every candidate removal, which is exactly the
// expensive part. Complexity is O((|S_C| + |T_C|) · cost(Verify)).
//
// The result is a correct converter whose trace set is a subset of the
// input's; it is locally minimal (no single state or transition can be
// removed without breaking correctness) but not guaranteed globally
// minimum. Prune never touches the initial state and preserves the
// interface alphabet.
func Prune(a, b, c *spec.Spec) (*spec.Spec, error) {
	return PruneRobust(a, []*spec.Spec{b}, c)
}

// PruneRobust is Prune against several environment variants at once: a
// removal is kept only if B_i‖C' still satisfies A for every variant. Use
// it on DeriveRobust output to obtain a compact converter that does not
// depend on which variant the deployment resembles — in particular, one
// whose progress does not rely on message loss occurring.
func PruneRobust(a *spec.Spec, bs []*spec.Spec, c *spec.Spec) (*spec.Spec, error) {
	if err := VerifyRobust(a, bs, c); err != nil {
		return nil, fmt.Errorf("quotient: Prune input is not a correct converter: %w", err)
	}
	cur := c
	for {
		next, changed := pruneOnce(a, bs, cur)
		if !changed {
			return cur, nil
		}
		cur = next
	}
}

// pruneOnce attempts one pass of state removals then transition removals,
// returning the improved converter and whether anything changed.
func pruneOnce(a *spec.Spec, bs []*spec.Spec, cur *spec.Spec) (*spec.Spec, bool) {
	changed := false
	// States (never the initial one), in stable order.
	for st := 0; st < cur.NumStates(); st++ {
		if spec.State(st) == cur.Init() {
			continue
		}
		cand := removeState(cur, spec.State(st))
		if cand == nil {
			continue
		}
		if VerifyRobust(a, bs, cand) == nil {
			cur = cand
			changed = true
			st = -1 // restart: indices shifted
		}
	}
	// Individual transitions.
	for st := 0; st < cur.NumStates(); st++ {
		edges := cur.ExtEdges(spec.State(st))
		for ei := 0; ei < len(edges); ei++ {
			cand := removeEdge(cur, spec.State(st), edges[ei])
			if VerifyRobust(a, bs, cand) == nil {
				cur = cand
				changed = true
				edges = cur.ExtEdges(spec.State(st))
				ei = -1
			}
		}
	}
	return cur, changed
}

// removeState rebuilds cur without state victim (and without its incident
// transitions), trimmed to reachable states. Returns nil if the victim is
// the initial state.
func removeState(cur *spec.Spec, victim spec.State) *spec.Spec {
	if victim == cur.Init() {
		return nil
	}
	d := denseOf(cur)
	for st := range d.Ext {
		if spec.State(st) == victim {
			d.Ext[st], d.Int[st] = nil, nil
			continue
		}
		d.Ext[st] = slices.DeleteFunc(slices.Clone(d.Ext[st]), func(ed spec.ExtEdge) bool { return ed.To == victim })
		d.Int[st] = slices.DeleteFunc(slices.Clone(d.Int[st]), func(t spec.State) bool { return t == victim })
	}
	return buildTrimmed(d)
}

// removeEdge rebuilds cur without one external transition, trimmed.
func removeEdge(cur *spec.Spec, from spec.State, victim spec.ExtEdge) *spec.Spec {
	d := denseOf(cur)
	d.Ext[from] = slices.DeleteFunc(slices.Clone(d.Ext[from]), func(ed spec.ExtEdge) bool { return ed == victim })
	return buildTrimmed(d)
}

// denseOf lays cur out as a spec.Dense whose adjacency lists alias cur's
// own, so callers clone a list before editing it. Rebuilding it
// with spec.BuildTrimmed numbers states exactly as replaying cur into a
// Builder and trimming did.
func denseOf(cur *spec.Spec) spec.Dense {
	n := cur.NumStates()
	d := spec.Dense{
		Name:       cur.Name(),
		StateNames: make([]string, n),
		Init:       cur.Init(),
		Alphabet:   cur.Alphabet(),
		Ext:        make([][]spec.ExtEdge, n),
		Int:        make([][]spec.State, n),
	}
	for st := 0; st < n; st++ {
		d.StateNames[st] = cur.StateName(spec.State(st))
		d.Ext[st] = cur.ExtEdges(spec.State(st))
		d.Int[st] = cur.IntEdges(spec.State(st))
	}
	return d
}

// buildTrimmed is spec.BuildTrimmed for a Dense derived from a valid spec,
// which cannot fail.
func buildTrimmed(d spec.Dense) *spec.Spec {
	s, err := spec.BuildTrimmed(d)
	if err != nil {
		panic(err)
	}
	return s
}
