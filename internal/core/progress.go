// Incremental, memoized progress phase (paper Fig. 6).
//
// A sweep removes every converter state containing a pair whose composite
// ready sets cannot satisfy A's acceptance sets; removal changes
// reachability, so sweeps repeat to a fixpoint. Five ideas keep the phase
// cheap on large instances:
//
//   - Incrementality (PR 1): deleting state r only changes verdicts of
//     converter states that could reach r, so each sweep after the first
//     re-examines only the predecessor closure of the previous sweep's
//     removals, over the static safety-phase graph.
//   - Dense memoized ready sets (PR 3): the composite states ⟨b,c⟩ of
//     B‖C that matter are exactly the (v,b) projections of c's pair set
//     (pair sets are closed under B's internal moves and synchronized Int
//     steps land in the successor's pair set), so each converter state c
//     owns a static sorted "combo" table and a flat array of ready masks —
//     bitmasks over Ext laid out by sat.ReadyIndex. Masks survive sweeps;
//     invalidation clears whole columns (every combo of an affected
//     converter state), which is exactly the predecessor closure the
//     incremental sweep re-examines, so a memo can never be stale. Ready
//     computation runs Tarjan SCC condensation over the combo graph and a
//     reverse-topological DP, with edges into still-valid columns consumed
//     as memoized leaves (the τ-closure cache hits of core.Metrics).
//   - The wide, pb-major sweep (this PR): a sweep's Tarjan graph used to
//     have one node per (column, slot) — on chain-scale instances, millions
//     of nodes whose construction dominated the phase. But the graph's
//     τ-edges are column-independent and its Int-edges only redirect the
//     column, so when a sweep touches at most 64 columns the engine instead
//     runs ONE Tarjan over the packed-b states (refreshReadyWide): each pb
//     carries a 64-bit membership mask over the affected columns, masks for
//     all member columns are computed together in a dense node-major
//     scratch, and within-SCC fixpoint iteration absorbs the (sound,
//     order-only) overapproximation of collapsing per-column edges onto the
//     pb graph. The mask system is monotone, so its least fixpoint — the
//     exact τ*-reachability closure — is what both paths compute: the wide
//     sweep is bit-identical to the narrow one. Sweeps touching more
//     columns keep the narrow per-(column, slot) Tarjan with successor
//     arenas and rank-bitmap slot lookup (PR 5).
//   - Sequential sweeps: both paths walk Tarjan's emission order, which
//     is already reverse-topological, and the verdict scan walks the
//     affected states in order, switching to the batched sat.ProgBlock
//     kernel on dense columns. A work-stealing SCC scheduler and a
//     run-sharded parallel scan used to fan this phase over workers; on a
//     2-core box they never beat one worker (chain(9) progress 1.63 s at
//     w1 against 3.66 s at w2, with allocations up from 4.6k to 2.1M), so
//     they were removed (DESIGN §12). The safety phase is single-threaded
//     too (expand.go).
//   - Determinism everywhere: each mask is the unique least fixpoint of a
//     monotone union system, so removal order — and therefore every
//     downstream artifact — is bit-identical for both sweep paths.
//
// The prog verdict itself is sat.AcceptanceIndex.Prog: A's acceptance sets
// precompiled to minimal bitmasks, one subset test per candidate.
package core

import (
	"fmt"
	"math/bits"
	"sort"

	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

// rankThreshold is the combo-table size at which a column gets a rank
// bitmap for O(1) slot lookup instead of binary search. Below it the bitmap
// (totalB bits + prefix counts) costs more to build than it saves.
const rankThreshold = 128

// wideColumnLimit is the most affected columns a sweep may have and still
// take the wide pb-major path: one bit per column in a pb's membership
// mask. A variable, not a constant, so tests can force the narrow path and
// cross-check the two (TestNarrowWideSweepsAgree).
var wideColumnLimit = 64

// wideMemWords caps the wide path's dense mask scratch, in uint64 words
// (32M words = 256 MiB); sweeps that would exceed it fall back to the
// narrow path, which allocates per live slot instead of per (pb, column).
var wideMemWords = 32 << 20

// progTables is the progress phase's per-derivation state, kept on the
// deriver so repeated sweeps share the combo tables and memoized masks.
type progTables struct {
	accIx   *sat.AcceptanceIndex
	readyIx *sat.ReadyIndex
	words   int   // mask stride in uint64 words
	totalB  int32 // packed-b domain size at progress start

	bready []uint64 // totalB × words: τ.b ∩ Ext as a mask, per packed b

	// ext/ints are the resolved edge rows per packed b, captured once at
	// init (slice headers only) so successor resolution never goes back
	// through the environment — in particular never through compose.Lazy's
	// atomic published-row check, and never forcing an expansion.
	ext  [][]bedge
	ints [][]int32

	// Per converter state ("column"): the sorted packed-b combo table, the
	// flat ready-mask storage (len(combos)×words), the per-slot Tarjan node
	// id scratch, whether the column's masks are current, and — for large
	// columns — the rank bitmap accelerating slotOf.
	combos    [][]int32
	ready     [][]uint64
	slotNode  [][]int32
	valid     []bool
	comboBits [][]uint64
	comboRank [][]int32

	// Sweep scratch, persisted so every sweep after the first reuses the
	// first sweep's capacity instead of re-growing it allocation by
	// allocation (the first sweep visits every column; later sweeps a
	// shrinking closure). SCC membership is stored flat: SCC si's members
	// are sccMembers[sccOff[si]:sccOff[si+1]]. The narrow path stores
	// (column, slot) node ids in these arrays, the wide path pb node ids.
	tnodes     []tnode
	tarena     []succRef
	tlow       []int32
	tonStack   []bool
	tsccOf     []int32
	tstack     []int32
	tframes    []tframe
	sccMembers []int32
	sccOff     []int32

	// Wide-sweep (pb-major) state; see refreshReadyWide. wMember and wNode
	// span the packed-b domain and are restored to all-zero / all -1 after
	// every wide sweep, so only the touched entries are ever paid for.
	wMember []uint64 // per pb: membership bitmask over the sweep's columns
	wNode   []int32  // per pb: dense node id this sweep, or -1
	wActive []int32  // node id → pb
	wReady  []uint64 // node-major mask scratch: [(node*m + j) * words]
	wDfn    []int32  // per node: Tarjan DFS number, or -1
	wSelf   []bool   // per node: has a pb-graph self-edge (needs fixpoint)
	colOf   []int32  // converter state → index into the sweep's cols, or -1
}

// initProgTables builds the acceptance index, base ready masks, and empty
// column tables. Combo tables are projected lazily per column.
func (d *deriver) initProgTables() error {
	readyIx, err := sat.NewReadyIndex(d.a.Alphabet())
	if err != nil {
		return fmt.Errorf("quotient: progress phase: %w", err)
	}
	accIx, err := sat.NewAcceptanceIndex(d.a, readyIx)
	if err != nil {
		return fmt.Errorf("quotient: progress phase: %w", err)
	}
	pt := &progTables{accIx: accIx, readyIx: readyIx, words: readyIx.Words()}
	if d.lazy != nil {
		// The safety phase is done exploring: the packed-b domain is
		// whatever it discovered. Only expanded states have rows (and only
		// they can appear in pair sets); the rest keep zero masks that are
		// never consulted.
		_, discovered, _ := d.lazy.ExpansionStats()
		pt.totalB = int32(discovered)
	} else {
		for v := range d.bs {
			pt.totalB += d.numBs[v]
		}
	}
	pt.bready = make([]uint64, int(pt.totalB)*pt.words)
	pt.ext = make([][]bedge, pt.totalB)
	pt.ints = make([][]int32, pt.totalB)
	// bitOf is the vectorized ReadyIndex rebuild table: the mask bit of
	// every Σ_B event id, resolved through the index's map exactly once
	// instead of once per edge of every row.
	bitOf := make([]int32, d.nev)
	for ei := 0; ei < d.nev; ei++ {
		bitOf[ei] = -1
		if !d.isExt[ei] {
			continue
		}
		pos, ok := readyIx.Bit(d.events[ei])
		if !ok { // Ext = Σ_A, so every external event has a bit
			return fmt.Errorf("quotient: progress phase: event %q missing from ready universe", d.events[ei])
		}
		bitOf[ei] = int32(pos)
	}
	fill := func(pb int32, ext []bedge) {
		row := pt.bready[int(pb)*pt.words:]
		for _, ed := range ext {
			if pos := bitOf[ed.Ev]; pos >= 0 {
				row[pos>>6] |= 1 << (uint(pos) & 63)
			}
		}
	}
	if d.lazy != nil {
		for pb := int32(0); pb < pt.totalB; pb++ {
			ext, ints, ok := d.lazy.PeekRows(spec.State(pb))
			if !ok {
				continue // frontier-only state: zero mask, empty rows, never consulted
			}
			pt.ext[pb], pt.ints[pb] = ext, ints
			fill(pb, ext)
		}
	} else {
		for v := range d.bs {
			for b := int32(0); b < d.numBs[v]; b++ {
				pb := d.boff[v] + b
				pt.ext[pb], pt.ints[pb] = d.bext[v][b], d.bintl[v][b]
				fill(pb, d.bext[v][b])
			}
		}
	}
	n := len(d.states)
	pt.combos = make([][]int32, n)
	pt.ready = make([][]uint64, n)
	pt.slotNode = make([][]int32, n)
	pt.valid = make([]bool, n)
	pt.comboBits = make([][]uint64, n)
	pt.comboRank = make([][]int32, n)
	d.prog = pt
	return nil
}

// column ensures converter state ci's combo table exists: the sorted,
// deduplicated packed-b projection of its pair set. The pb-major pair
// encoding delivers pairs in ascending packed-b order, so the projection is
// a single dedup pass — no sort.
func (pt *progTables) column(d *deriver, ci int32) []int32 {
	if pt.combos[ci] != nil {
		return pt.combos[ci]
	}
	numA := int32(d.numA)
	out := make([]int32, 0, 8)
	last := int32(-1)
	d.table.get(ci).forEach(func(p int32) {
		if pb := p / numA; pb != last {
			out = append(out, pb)
			last = pb
		}
	})
	pt.combos[ci] = out
	pt.ready[ci] = make([]uint64, len(out)*pt.words)
	pt.slotNode[ci] = make([]int32, len(out))
	if len(out) >= rankThreshold {
		nw := (int(pt.totalB) + 63) / 64
		bm := make([]uint64, nw)
		for _, pb := range out {
			bm[pb>>6] |= 1 << (uint(pb) & 63)
		}
		rank := make([]int32, nw)
		c := int32(0)
		for i, w := range bm {
			rank[i] = c
			c += int32(bits.OnesCount64(w))
		}
		pt.comboBits[ci] = bm
		pt.comboRank[ci] = rank
	}
	return out
}

// slotOf locates packed-b id pb in ci's combo table; -1 if absent. Large
// columns answer from the rank bitmap in O(1); small ones binary-search.
func (pt *progTables) slotOf(ci, pb int32) int32 {
	if bm := pt.comboBits[ci]; bm != nil {
		w := pb >> 6
		bit := uint64(1) << (uint(pb) & 63)
		if bm[w]&bit == 0 {
			return -1
		}
		return pt.comboRank[ci][w] + int32(bits.OnesCount64(bm[w]&(bit-1)))
	}
	combos := pt.combos[ci]
	lo, hi := 0, len(combos)
	for lo < hi {
		mid := (lo + hi) / 2
		if combos[mid] < pb {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(combos) && combos[lo] == pb {
		return int32(lo)
	}
	return -1
}

func (d *deriver) progressPhase(res *Result, alive []bool) error {
	if err := d.initProgTables(); err != nil {
		return err
	}
	n := len(d.states)
	// Static predecessor lists over the safety-phase graph; self-loops are
	// irrelevant to the closure and skipped.
	preds := make([][]int32, n)
	for ci := range d.states {
		for _, t := range d.states[ci].succ {
			if t >= 0 && int(t) != ci {
				preds[t] = append(preds[t], int32(ci))
			}
		}
	}
	affected := make([]int32, n)
	for i := range affected {
		affected[i] = int32(i)
	}
	removedTotal := 0
	initialBlame := int32(-1) // state 0's first failing pair, once it fails
	for {
		res.Stats.ProgressIterations++
		if err := d.ctx.Err(); err != nil {
			return fmt.Errorf("quotient: progress phase canceled at iteration %d: %w",
				res.Stats.ProgressIterations, err)
		}
		d.refreshReady(alive, affected)
		removed, blame := d.verdictScan(alive, affected)
		if len(removed) == 0 {
			d.emit(TraceEvent{
				Phase:     "progress",
				Iteration: res.Stats.ProgressIterations,
				Detail: fmt.Sprintf("progress phase: iteration %d removed nothing; fixpoint",
					res.Stats.ProgressIterations),
			})
			break
		}
		d.emit(TraceEvent{
			Phase:     "progress",
			Iteration: res.Stats.ProgressIterations,
			Removed:   len(removed),
			Detail: fmt.Sprintf("progress phase: iteration %d marked %d state(s) bad",
				res.Stats.ProgressIterations, len(removed)),
		})
		for i, ci := range removed {
			if ci == 0 {
				initialBlame = blame[i]
			}
			alive[ci] = false
			removedTotal++
			d.emit(TraceEvent{
				Phase:     "progress",
				Iteration: res.Stats.ProgressIterations,
				State:     d.stateName(ci),
			})
		}
		if !alive[0] {
			break // initial state removed: all states unreachable
		}
		// Drop live transitions into dead states, then re-examine only the
		// predecessor closure of what just died.
		for _, ci := range removed {
			for _, p := range preds[ci] {
				if !alive[p] {
					continue
				}
				succ := d.states[p].succ
				for ei, t := range succ {
					if t == ci {
						succ[ei] = -1
					}
				}
			}
		}
		affected = predClosure(preds, removed, alive)
	}
	res.Stats.RemovedStates = removedTotal
	if !alive[0] {
		// The witness trace is driven to the first pair of state 0 the scan
		// found failing.
		return &NoQuotientError{
			Reason: fmt.Sprintf(
				"progress phase removed the initial state after %d iterations (%d states removed): every candidate behavior risks a progress violation of the service",
				res.Stats.ProgressIterations, removedTotal),
			FailedPhase:  "progress",
			WitnessTrace: d.progressWitness(initialBlame),
		}
	}
	return nil
}

// predClosure returns the live states in the predecessor closure of the
// removed set under the static graph, sorted ascending so the next sweep
// examines states in the same order a full rescan would.
func predClosure(preds [][]int32, removed []int32, alive []bool) []int32 {
	visited := make(map[int32]bool, len(removed)*2)
	queue := append([]int32(nil), removed...)
	for _, r := range removed {
		visited[r] = true
	}
	var out []int32
	for len(queue) > 0 {
		ci := queue[0]
		queue = queue[1:]
		for _, p := range preds[ci] {
			if visited[p] {
				continue
			}
			visited[p] = true
			queue = append(queue, p)
			if alive[p] {
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tnode is one narrow-path Tarjan node: a (column, slot) composite state
// scheduled for ready-mask recomputation this sweep. Its successor
// references live in the shared arena at [succStart, succEnd) — resolved
// exactly once, at node creation, then iterated by the SCC walk, the
// dependency builder, and the mask DP.
type tnode struct {
	ci, slot           int32
	succStart, succEnd int32
}

// succRef is one resolved successor: the target (column, slot), and whether
// the target column's masks were already valid when the node was created
// (a memoized leaf — it contributes its mask but is not part of this
// sweep's graph).
type succRef struct {
	ci, slot int32
	memo     bool
}

// tframe is one iterative-DFS frame of a Tarjan walk: a node, the resume
// position within its successor range, and the range end.
type tframe struct {
	node int32
	ei   int32
	end  int32
}

// refreshReady brings the ready masks of every affected live column up to
// date. It first invalidates the affected columns (the memo-soundness
// obligation: these are exactly the states whose composite reachability
// changed), then dispatches on sweep shape: at most wideColumnLimit
// affected columns takes the wide pb-major path, anything bigger (or a
// wide sweep that would blow the memory cap) the narrow per-slot path.
// Both compute the same masks — see the package comment.
func (d *deriver) refreshReady(alive []bool, affected []int32) {
	pt := d.prog
	cols := make([]int32, 0, len(affected))
	for _, ci := range affected {
		if !alive[ci] {
			continue
		}
		combos := pt.column(d, ci)
		if pt.valid[ci] {
			pt.valid[ci] = false
			d.met.TauInvalidated += len(combos)
		}
		cols = append(cols, ci)
	}
	if len(cols) == 0 {
		return
	}
	if len(cols) > wideColumnLimit || !d.refreshReadyWide(alive, cols) {
		d.refreshReadyNarrow(alive, cols)
	}
	for _, ci := range cols {
		pt.valid[ci] = true
	}
}

// refreshReadyNarrow is the per-(column, slot) sweep: an iterative Tarjan
// SCC pass over the invalid combo graph — edges into valid columns are
// consumed as memoized leaves — followed by a reverse-topological DP over
// the condensation in Tarjan's emission order, which is successors-first.
func (d *deriver) refreshReadyNarrow(alive []bool, cols []int32) {
	pt := d.prog
	want := 0  // exact Tarjan node count: one per invalidated slot
	edges := 0 // successor bound: every B row entry of every slot
	for _, ci := range cols {
		want += len(pt.combos[ci])
		for _, pb := range pt.combos[ci] {
			edges += len(pt.ints[pb]) + len(pt.ext[pb])
		}
		sn := pt.slotNode[ci]
		for i := range sn {
			sn[i] = -1
		}
	}

	// Iterative Tarjan over the invalid-column combo graph. The per-node
	// slices are sized exactly (want is exact) and the arena to its bound,
	// so no append below reallocates; all keep their capacity across
	// sweeps.
	nodes := growCap(pt.tnodes, want)
	arena := growCap(pt.tarena, edges)
	low := growCap(pt.tlow, want)
	onStack := growCap(pt.tonStack, want)
	sccOf := growCap(pt.tsccOf, want)
	stack := growCap(pt.tstack, want)
	sccMembers := growCap(pt.sccMembers, want)
	sccOff := append(pt.sccOff[:0], 0)
	callStack := pt.tframes[:0]

	// addNode registers the Tarjan node for (ci, slot) and resolves its
	// successors into the arena: B's internal moves stay in the same column
	// (ascending), synchronized Int events redirect through the converter's
	// transition (bext order); edges into valid columns become memo leaves,
	// unreachable targets are dropped here so no later pass re-filters them.
	addNode := func(ci, slot int32) int32 {
		id := int32(len(nodes))
		start := int32(len(arena))
		pb := pt.combos[ci][slot]
		v := d.variantOf(pb)
		ext, ints := pt.ext[pb], pt.ints[pb]
		for _, t := range ints {
			s := pt.slotOf(ci, d.boff[v]+t)
			if s < 0 {
				continue // cannot happen: pair sets are τ-closed; defensive
			}
			arena = append(arena, succRef{ci: ci, slot: s})
		}
		for _, ed := range ext {
			ii := d.intlIndex[ed.Ev]
			if ii < 0 {
				continue // external to the composite
			}
			t := d.states[ci].succ[ii]
			if t < 0 || !alive[t] {
				continue
			}
			s := pt.slotOf(t, d.boff[v]+ed.To)
			if s < 0 {
				continue // closure property; defensive
			}
			arena = append(arena, succRef{ci: t, slot: s, memo: pt.valid[t]})
		}
		nodes = append(nodes, tnode{ci: ci, slot: slot, succStart: start, succEnd: int32(len(arena))})
		low = append(low, id)
		onStack = append(onStack, true)
		sccOf = append(sccOf, -1)
		pt.slotNode[ci][slot] = id
		stack = append(stack, id)
		return id
	}

	visit := func(rootCi, rootSlot int32) {
		if pt.slotNode[rootCi][rootSlot] >= 0 {
			return
		}
		callStack = callStack[:0]
		id := addNode(rootCi, rootSlot)
		callStack = append(callStack, tframe{node: id, ei: nodes[id].succStart, end: nodes[id].succEnd})
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.ei >= f.end {
				// Exhausted: maybe emit an SCC, then return to caller.
				if low[f.node] == f.node {
					si := int32(len(sccOff)) - 1
					for {
						m := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						onStack[m] = false
						sccOf[m] = si
						sccMembers = append(sccMembers, m)
						if m == f.node {
							break
						}
					}
					sccOff = append(sccOff, int32(len(sccMembers)))
				}
				callStack = callStack[:len(callStack)-1]
				if len(callStack) > 0 {
					parent := &callStack[len(callStack)-1]
					if low[f.node] < low[parent.node] {
						low[parent.node] = low[f.node]
					}
				}
				continue
			}
			r := arena[f.ei]
			f.ei++
			if r.memo {
				continue // memoized leaf: no SCC structure
			}
			tid := pt.slotNode[r.ci][r.slot]
			if tid < 0 {
				tid = addNode(r.ci, r.slot)
				// f may be stale after the appends above; push re-derives
				// everything from tid.
				callStack = append(callStack, tframe{node: tid, ei: nodes[tid].succStart, end: nodes[tid].succEnd})
			} else if onStack[tid] {
				if tid < low[f.node] {
					low[f.node] = tid
				}
			}
		}
	}
	for _, ci := range cols {
		for slot := range pt.combos[ci] {
			visit(ci, int32(slot))
		}
	}
	d.met.ReadySetRebuilds += len(nodes)

	w := pt.words
	hits := 0
	// Tarjan emits an SCC only after every SCC reachable from it, so
	// ascending emission order is a valid reverse-topological schedule.
	mask := make([]uint64, w)
	for si := int32(0); si < int32(len(sccOff)-1); si++ {
		members := sccMembers[sccOff[si]:sccOff[si+1]]
		if w == 1 {
			// Scalar fast path for the common single-word ready universe.
			var acc uint64
			for _, m := range members {
				nd := nodes[m]
				acc |= pt.bready[pt.combos[nd.ci][nd.slot]]
				for _, r := range arena[nd.succStart:nd.succEnd] {
					if !r.memo && sccOf[pt.slotNode[r.ci][r.slot]] == si {
						continue // intra-SCC edge: same mask by definition
					}
					if r.memo {
						hits++
					}
					acc |= pt.ready[r.ci][r.slot]
				}
			}
			for _, m := range members {
				nd := nodes[m]
				pt.ready[nd.ci][nd.slot] = acc
			}
			continue
		}
		for i := range mask {
			mask[i] = 0
		}
		for _, m := range members {
			nd := nodes[m]
			pb := pt.combos[nd.ci][nd.slot]
			sat.OrInto(mask, pt.bready[int(pb)*w:int(pb)*w+w])
			for _, r := range arena[nd.succStart:nd.succEnd] {
				if !r.memo && sccOf[pt.slotNode[r.ci][r.slot]] == si {
					continue // intra-SCC edge: same mask by definition
				}
				if r.memo {
					hits++
				}
				sat.OrInto(mask, pt.ready[r.ci][int(r.slot)*w:int(r.slot)*w+w])
			}
		}
		for _, m := range members {
			nd := nodes[m]
			copy(pt.ready[nd.ci][int(nd.slot)*w:int(nd.slot)*w+w], mask)
		}
	}
	d.met.TauCacheHits += hits

	// Park the scratch (at its grown capacity) for the next sweep.
	pt.tnodes, pt.tarena = nodes, arena
	pt.tlow, pt.tonStack, pt.tsccOf, pt.tstack = low, onStack, sccOf, stack
	pt.tframes = callStack
	pt.sccMembers, pt.sccOff = sccMembers, sccOff
}

// refreshReadyWide is the pb-major sweep for narrow-column shapes (at most
// wideColumnLimit affected columns): one Tarjan over the packed-b states
// that appear in any affected column, with per-pb membership masks and a
// dense node-major mask scratch holding one ready mask per (pb, member
// column). Collapsing per-column edges onto the pb graph can only merge
// SCCs, never split an order constraint — the τ-edges are genuinely
// column-independent, and every Int-edge some column needs maps to a pb
// edge that is present whenever its target participates in the sweep — so
// the condensation order is valid for every column, and within-SCC
// fixpoint iteration converges each mask to the unique least fixpoint the
// narrow path computes slot by slot. Returns false (leaving all state
// restored) when the scratch would exceed wideMemWords.
func (d *deriver) refreshReadyWide(alive []bool, cols []int32) bool {
	pt := d.prog
	m := len(cols)
	w := pt.words
	if pt.wMember == nil {
		pt.wMember = make([]uint64, pt.totalB)
		pt.wNode = make([]int32, pt.totalB)
		for i := range pt.wNode {
			pt.wNode[i] = -1
		}
		pt.colOf = make([]int32, len(d.states))
		for i := range pt.colOf {
			pt.colOf[i] = -1
		}
	}
	// Membership pass: one bit per affected column per pb; node ids are
	// assigned in first-touch order. Everything set here is undone before
	// returning (on both the bail-out and the success path), keeping the
	// domain-sized arrays at their zero state between sweeps.
	active := pt.wActive[:0]
	slots := 0
	for j, ci := range cols {
		bit := uint64(1) << uint(j)
		for _, pb := range pt.combos[ci] {
			if pt.wMember[pb] == 0 {
				pt.wNode[pb] = int32(len(active))
				active = append(active, pb)
			}
			pt.wMember[pb] |= bit
		}
		slots += len(pt.combos[ci])
		pt.colOf[ci] = int32(j)
	}
	nAct := len(active)
	cleanup := func() {
		for _, pb := range active {
			pt.wMember[pb] = 0
			pt.wNode[pb] = -1
		}
		for _, ci := range cols {
			pt.colOf[ci] = -1
		}
		pt.wActive = active[:0]
	}
	if nAct*m*w > wideMemWords {
		cleanup()
		return false
	}

	// Iterative Tarjan over the pb graph, successors resolved on the fly
	// (τ targets stay in-sweep by closure; Int targets join when any member
	// column could redirect into them). Self-edges don't affect SCC
	// structure but flag the node for fixpoint iteration: an Int self-edge
	// can carry a cross-column dependency (pb, j) → (pb, j').
	dfn := resizeSlice(pt.wDfn, nAct)
	low := resizeSlice(pt.tlow, nAct)
	sccOf := resizeSlice(pt.tsccOf, nAct)
	onStack := resizeSlice(pt.tonStack, nAct)
	self := resizeSlice(pt.wSelf, nAct)
	for i := 0; i < nAct; i++ {
		dfn[i] = -1
		onStack[i] = false
		self[i] = false
	}
	stack := pt.tstack[:0]
	frames := pt.tframes[:0]
	sccMembers := growCap(pt.sccMembers, nAct)
	sccOff := append(pt.sccOff[:0], 0)

	var dfc int32
	push := func(nid int32) {
		dfn[nid], low[nid] = dfc, dfc
		dfc++
		onStack[nid] = true
		stack = append(stack, nid)
		pb := active[nid]
		frames = append(frames, tframe{node: nid, ei: 0, end: int32(len(pt.ints[pb]) + len(pt.ext[pb]))})
	}
	for _, root := range active {
		if dfn[pt.wNode[root]] >= 0 {
			continue
		}
		push(pt.wNode[root])
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			nid := f.node
			if f.ei >= f.end {
				if low[nid] == dfn[nid] {
					si := int32(len(sccOff)) - 1
					for {
						mn := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						onStack[mn] = false
						sccOf[mn] = si
						sccMembers = append(sccMembers, mn)
						if mn == nid {
							break
						}
					}
					sccOff = append(sccOff, int32(len(sccMembers)))
				}
				frames = frames[:len(frames)-1]
				if len(frames) > 0 {
					p := &frames[len(frames)-1]
					if low[nid] < low[p.node] {
						low[p.node] = low[nid]
					}
				}
				continue
			}
			pb := active[nid]
			ints := pt.ints[pb]
			q := int32(-1)
			if int(f.ei) < len(ints) {
				q = d.boff[d.variantOf(pb)] + ints[f.ei]
			} else {
				ed := pt.ext[pb][int(f.ei)-len(ints)]
				if d.intlIndex[ed.Ev] >= 0 {
					t := d.boff[d.variantOf(pb)] + ed.To
					if pt.wMember[t] != 0 {
						q = t
					}
				}
			}
			f.ei++
			if q < 0 {
				continue
			}
			if q == pb {
				self[nid] = true
				continue
			}
			tn := pt.wNode[q]
			if dfn[tn] < 0 {
				push(tn) // f is stale after this; the loop refetches it
			} else if onStack[tn] && dfn[tn] < low[nid] {
				low[nid] = dfn[tn]
			}
		}
	}
	d.met.ReadySetRebuilds += slots

	// Dense mask scratch, node-major: all member columns of a pb are
	// adjacent, so the DP streams each row's edges once and updates every
	// column in cache order. Masks start at ⊥; monotone union iteration
	// makes the final content the least fixpoint regardless of order.
	need := nAct * m * w
	if cap(pt.wReady) < need {
		pt.wReady = make([]uint64, need)
	} else {
		pt.wReady = pt.wReady[:need]
		for i := range pt.wReady {
			pt.wReady[i] = 0
		}
	}
	wr := pt.wReady

	hits := 0
	acc := make([]uint64, w)
	computeWide := func(si int32) {
		members := sccMembers[sccOff[si]:sccOff[si+1]]
		pass := func(count bool) bool {
			changed := false
			for _, nid := range members {
				pb := active[nid]
				v := d.variantOf(pb)
				ints, ext := pt.ints[pb], pt.ext[pb]
				if w == 1 {
					base := pt.bready[pb]
					for rest := pt.wMember[pb]; rest != 0; {
						j := bits.TrailingZeros64(rest)
						rest &^= 1 << uint(j)
						ci := cols[j]
						acc0 := base
						for _, t := range ints {
							acc0 |= wr[int(pt.wNode[d.boff[v]+t])*m+j]
						}
						succ := d.states[ci].succ
						for _, ed := range ext {
							ii := d.intlIndex[ed.Ev]
							if ii < 0 {
								continue
							}
							t := succ[ii]
							if t < 0 || !alive[t] {
								continue
							}
							q := d.boff[v] + ed.To
							if jj := pt.colOf[t]; jj >= 0 {
								acc0 |= wr[int(pt.wNode[q])*m+int(jj)]
							} else if s := pt.slotOf(t, q); s >= 0 {
								acc0 |= pt.ready[t][s]
								if count {
									hits++
								}
							}
						}
						if idx := int(nid)*m + j; wr[idx] != acc0 {
							wr[idx] = acc0
							changed = true
						}
					}
					continue
				}
				base := pt.bready[int(pb)*w : int(pb)*w+w]
				for rest := pt.wMember[pb]; rest != 0; {
					j := bits.TrailingZeros64(rest)
					rest &^= 1 << uint(j)
					ci := cols[j]
					copy(acc, base)
					for _, t := range ints {
						o := (int(pt.wNode[d.boff[v]+t])*m + j) * w
						sat.OrInto(acc, wr[o:o+w])
					}
					succ := d.states[ci].succ
					for _, ed := range ext {
						ii := d.intlIndex[ed.Ev]
						if ii < 0 {
							continue
						}
						t := succ[ii]
						if t < 0 || !alive[t] {
							continue
						}
						q := d.boff[v] + ed.To
						if jj := pt.colOf[t]; jj >= 0 {
							o := (int(pt.wNode[q])*m + int(jj)) * w
							sat.OrInto(acc, wr[o:o+w])
						} else if s := pt.slotOf(t, q); s >= 0 {
							sat.OrInto(acc, pt.ready[t][int(s)*w:int(s)*w+w])
							if count {
								hits++
							}
						}
					}
					o := (int(nid)*m + j) * w
					dst := wr[o : o+w]
					same := true
					for i := range acc {
						if acc[i] != dst[i] {
							same = false
							break
						}
					}
					if !same {
						copy(dst, acc)
						changed = true
					}
				}
			}
			return changed
		}
		// A singleton SCC without self-edges is already final after one
		// pass; anything else iterates to the fixpoint. Memo hits are
		// counted on the first pass only, matching the narrow path's
		// one-count-per-edge accounting.
		if len(members) == 1 && !self[members[0]] {
			pass(true)
			return
		}
		if pass(true) {
			for pass(false) {
			}
		}
	}
	// Ascending emission order is reverse-topological, as in the narrow path.
	for si := int32(0); si < int32(len(sccOff)-1); si++ {
		computeWide(si)
	}
	d.met.TauCacheHits += hits

	// Scatter the node-major masks back into the column-major memo the
	// verdict scan and future sweeps' memo leaves read.
	for j, ci := range cols {
		combos := pt.combos[ci]
		dst := pt.ready[ci]
		if w == 1 {
			for s, pb := range combos {
				dst[s] = wr[int(pt.wNode[pb])*m+j]
			}
			continue
		}
		for s, pb := range combos {
			o := (int(pt.wNode[pb])*m + j) * w
			copy(dst[s*w:(s+1)*w], wr[o:o+w])
		}
	}

	cleanup()
	// Park the scratch for the next sweep.
	pt.wDfn, pt.tlow, pt.tsccOf = dfn, low, sccOf
	pt.tonStack, pt.wSelf = onStack, self
	pt.tstack, pt.tframes = stack[:0], frames[:0]
	pt.sccMembers, pt.sccOff = sccMembers, sccOff
	return true
}

// growCap returns s emptied for reuse, reallocating only when its capacity
// cannot hold n elements.
func growCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// resizeSlice returns s resized to exactly n elements, reallocating only
// when the capacity is insufficient; contents are unspecified.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// verdictScan evaluates prog for every pair of every affected live state,
// in affected order, and returns the states that fail together with each
// one's first failing pair in ascending pair order — the blame a
// no-quotient witness is driven to. The pb-major encoding delivers a
// state's pairs in nondecreasing packed-b order — the same order as its
// combo table — so a merge-walk cursor finds each pair's ready-mask slot
// without per-pair lookup.
func (d *deriver) verdictScan(alive []bool, affected []int32) (removed, blame []int32) {
	pt := d.prog
	w := pt.words
	numA := int32(d.numA)
	var verdicts []uint64 // ProgBlock output, reused across block columns
	for _, ci := range affected {
		if !alive[ci] {
			continue
		}
		d.met.ProgressScans++
		set := d.table.get(ci)
		combos := pt.combos[ci]
		nslots := len(combos)
		// The block path evaluates every A-state against the whole mask
		// column with one ProgBlock stream each, paying numA×slots candidate
		// tests up front to make each pair check O(1); it wins only on
		// columns dense enough in (a, pb) pairs that the pair walk dominates.
		vw := 0
		if nslots >= rankThreshold && d.numA > 1 && 4*set.count() >= 3*d.numA*nslots {
			vw = (nslots + 63) / 64
			verdicts = resizeSlice(verdicts, d.numA*vw)
			for a := 0; a < d.numA; a++ {
				pt.accIx.ProgBlock(spec.State(a), pt.ready[ci], nslots, verdicts[a*vw:(a+1)*vw])
			}
		}
		cursor := 0
		bad := int32(-1)
		set.forEachUntil(func(p int32) bool {
			a, pb := p%numA, p/numA
			for cursor < len(combos) && combos[cursor] < pb {
				cursor++
			}
			var ok bool
			switch {
			case cursor == len(combos) || combos[cursor] != pb:
				ok = false // cannot happen: combos are the projection
			case vw > 0:
				ok = verdicts[int(a)*vw+cursor>>6]&(1<<(uint(cursor)&63)) != 0
			default:
				ok = pt.accIx.Prog(spec.State(a), pt.ready[ci][cursor*w:cursor*w+w])
			}
			if !ok {
				bad = p
			}
			return !ok
		})
		if bad >= 0 {
			removed = append(removed, ci)
			blame = append(blame, bad)
		}
	}
	return removed, blame
}
