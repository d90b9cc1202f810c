package core

import (
	"fmt"

	"protoquot/internal/spec"
)

// UseReferenceEmitter makes every derivation emit its converter through
// referenceEmit until the returned function restores the real emitter. It
// is exported to the external test package (which can import protosmith,
// itself an importer of core); tests that call it must not run in
// parallel with other derivations.
func UseReferenceEmitter() (restore func()) {
	saved := emitter
	emitter = (*deriver).referenceEmit
	return func() { emitter = saved }
}

// referenceEmit is the Builder-based emission the integer emitter
// replaced: every alive state and edge goes through a spec.Builder under
// its "c<index>" name, and the built spec is trimmed to the states
// reachable from c0 by a second Builder replay (the way Spec.Trim worked
// before it became an integer renumbering, so this reference shares no
// code with the emitter). emitConverter must reproduce its output byte for
// byte.
func (d *deriver) referenceEmit(alive []bool) (*spec.Spec, error) {
	bld := spec.NewBuilder(fmt.Sprintf("C(%s/%s)", d.a.Name(), d.bs[0].Name()))
	for _, e := range d.intl {
		bld.Event(e)
	}
	bld.Init(d.stateName(0))
	for ci := range d.states {
		if !alive[ci] {
			continue
		}
		name := d.stateName(int32(ci))
		bld.State(name)
		for ei, t := range d.states[ci].succ {
			if t >= 0 && alive[t] {
				bld.Ext(name, d.intl[ei], d.stateName(t))
			}
		}
	}
	c, err := bld.Build()
	if err != nil {
		return nil, err
	}
	return builderTrim(c), nil
}

// builderTrim replays the reachable part of s into a fresh Builder.
func builderTrim(s *spec.Spec) *spec.Spec {
	b := spec.NewBuilder(s.Name())
	for _, e := range s.Alphabet() {
		b.Event(e)
	}
	b.Init(s.StateName(s.Init()))
	for i := 0; i < s.NumStates(); i++ {
		st := spec.State(i)
		if !s.IsReachable(st) {
			continue
		}
		b.State(s.StateName(st))
		for _, ed := range s.ExtEdges(st) {
			b.Ext(s.StateName(st), ed.Event, s.StateName(ed.To))
		}
		for _, t := range s.IntEdges(st) {
			b.Int(s.StateName(st), s.StateName(t))
		}
	}
	return b.MustBuild()
}
