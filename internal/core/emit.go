package core

import (
	"fmt"

	"protoquot/internal/spec"
)

// emitter is the converter emitter run calls. It is a variable only so the
// emitter differential test can swap in the Builder+Trim reference.
var emitter = (*deriver).emitConverter

// emitConverter lays the surviving converter states out as the returned
// spec, working on the integer successor rows alone: no Builder, no
// string-keyed maps.
//
// The numbering is the one a spec.Builder fed c0 first and then every
// alive state in index order, each followed by its alive successors in
// event order, would give after Build and Trim: two first-mention
// renumberings. The first (Builder order) visits alive states by index; the
// second (Trim order) visits the states reachable from c0 in the first
// numbering's order. Every row holds at most one successor per event and
// d.intl is sorted, so the rows are already in the (Event, To) order both
// passes visit, and the adjacency comes out sorted under the final
// numbers. Only states reachable from c0 get a final number, so the result
// is trimmed by construction and goes to spec.FromDense once, with no Trim.
func (d *deriver) emitConverter(alive []bool) (*spec.Spec, error) {
	built, _ := d.mentionOrder(nil, alive)
	reach := d.reachableFrom0(alive)
	order, id := d.mentionOrder(built, reach)

	edges := 0
	for _, ci := range order {
		for _, t := range d.states[ci].succ {
			if t >= 0 && alive[t] {
				edges++
			}
		}
	}
	names := make([]string, len(order))
	ext := make([][]spec.ExtEdge, len(order))
	buf := make([]spec.ExtEdge, 0, edges)
	for k, ci := range order {
		names[k] = d.stateName(ci)
		lo := len(buf)
		for ei, t := range d.states[ci].succ {
			if t >= 0 && alive[t] {
				buf = append(buf, spec.ExtEdge{Event: d.intl[ei], To: spec.State(id[t])})
			}
		}
		ext[k] = buf[lo:len(buf):len(buf)]
	}
	return spec.FromDense(spec.Dense{
		Name:       fmt.Sprintf("C(%s/%s)", d.a.Name(), d.bs[0].Name()),
		StateNames: names,
		Alphabet:   d.intl,
		Ext:        ext,
	})
}

// mentionOrder numbers the states keep marks in first-mention order: state
// 0 first, then each kept state of visit (every state in index order when
// visit is nil) followed by its kept successors in event order. It returns
// the state behind each number and the number of each state (-1 where not
// kept).
func (d *deriver) mentionOrder(visit []int32, keep []bool) (order, id []int32) {
	id = make([]int32, len(d.states))
	for i := range id {
		id[i] = -1
	}
	order = make([]int32, 0, len(d.states))
	mention := func(ci int32) {
		if id[ci] < 0 && keep[ci] {
			id[ci] = int32(len(order))
			order = append(order, ci)
		}
	}
	expand := func(ci int32) {
		if !keep[ci] {
			return
		}
		mention(ci)
		for _, t := range d.states[ci].succ {
			if t >= 0 {
				mention(t)
			}
		}
	}
	mention(0)
	if visit == nil {
		for ci := range d.states {
			expand(int32(ci))
		}
	} else {
		for _, ci := range visit {
			expand(ci)
		}
	}
	return order, id
}

// reachableFrom0 marks the alive states reachable from state 0 through
// alive states.
func (d *deriver) reachableFrom0(alive []bool) []bool {
	seen := make([]bool, len(d.states))
	seen[0] = true
	stack := []int32{0}
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range d.states[ci].succ {
			if t >= 0 && alive[t] && !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return seen
}
