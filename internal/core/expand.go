// Batched safety-phase expansion.
//
// The seed engine's safety loop was a FIFO worklist: process state i,
// append its newly discovered successors, advance. Processing states in
// index order with append-on-discovery is exactly breadth-first search, so
// the same construction runs level by level — and, within a level, merge
// batch by merge batch: a fixed-size slice of the frontier has its φ(J, e)
// results computed (this file), then mergeBatch (core.go) interns the
// results and assigns canonical IDs in (state index, Int-event index)
// order. Discovery order, and therefore state numbering, transition
// structure, and every downstream artifact, match the plain worklist bit
// for bit regardless of batch size.
//
// The batch boundary is what the closure memo and the MaxStates check key
// on: expansion reads the intern table and closure memo as the previous
// merge left them, and the merge is their sole writer. Under a
// demand-driven environment, rowsPacked expands composite states on first
// touch. This is the fusion the lazy path is built around: the safety
// phase's own frontier walk is what drives environment exploration, and
// only the slice of the product the derivation actually touches is ever
// built.
//
// The phase is single-threaded: on a 2-core box a second expansion
// goroutine with a sharded intern merge lost on ring(7), gained 9% on
// chain(9) and allocated more on every family (EXPERIMENTS.md, "One
// safety-phase thread").
//
// Two closure engines share the walk structure:
//
//   - The mask closure (numA ≤ 64, the common case — service specs are
//     small even when the environment is huge) keeps one uint64 A-state
//     mask per packed-b state. One row scan then serves all A-states
//     reached at that b-state: internal B-moves OR the delta mask across,
//     joint external moves map it through the precomputed ψ bit table, and
//     ok.J violations are one AND against a per-event "ψ undefined" mask.
//     Compared to the per-pair walk this divides row traffic — the
//     dominant cost at the frontier, where closures span ~10⁶ pairs — by
//     up to numA.
//   - The scalar closure (numA > 64, or forced by tests) is the per-pair
//     DFS of the earlier engines.
//
// Both produce the same canonical set — the closure is a unique least
// fixpoint and the violation verdict is order-independent — which the
// differential suites check by forcing the scalar path.
//
// The deriver owns one scratch holding the walk state and a per-batch
// output arena (intern.go): a closure result costs arena space, not a heap
// allocation, and the arena rewinds after every merge once the surviving
// sets have been copied into intern-table storage.
package core

import (
	"math/bits"
	"slices"

	"protoquot/internal/spec"
)

// Safety-phase tuning knobs. Variables, not constants, so the differential
// and regression tests can force the interesting configurations; all three
// are load-bearing for determinism only in that they must not change
// mid-derivation.
var (
	// safetyMergeBatch is the number of frontier states expanded between
	// merges. It bounds how far past Options.MaxStates a derivation can run
	// before the per-batch check fires (by batch × |Int| states) and how
	// much transient closure output the scratch arena holds at once. Batch
	// boundaries are observable through MaxStates abort points and through
	// the closure memo's hit counts, so it is a constant of the engine.
	safetyMergeBatch = 4096
	// closureMemoEnabled gates the seed-set → closure memo.
	closureMemoEnabled = true
	// closureMemoMaxSeedWords bounds the packed size of a seed set the memo
	// will key on. Above it the expansion skips the memo entirely — no key
	// packing, no probe, no stored copy. The cap is a pure function of the
	// seed set, so it cannot perturb determinism; it exists because repeated
	// seed sets are a small-set phenomenon (convergent edges in dense
	// regions), while at the frontier each φ step seeds a fresh
	// multi-megabyte set that would be packed and copied into the memo arena
	// to be looked up exactly never.
	closureMemoMaxSeedWords = 1 << 12
	// maskClosureEnabled gates the word-parallel closure engine (used only
	// when numA ≤ 64 regardless).
	maskClosureEnabled = true
)

// phiResult is the outcome of one φ(J, e) computation. A nil set with
// ok=true and memoGID < 0 is the vacuous successor (no seed pairs: B cannot
// match any trace reaching it). ok=false means ok.J failed — the transition
// is omitted. memoGID ≥ 0 means the closure memo already mapped this seed
// set to a canonical state, and neither the closure nor the intern probe
// ran. set and seedSet point into the scratch arena and are valid only
// until that arena resets after the merge.
type phiResult struct {
	set      pairset
	hash     uint64  // set.hash(); emptyPairsetHash for the vacuous result
	seedSet  pairset // canonical φ seed set, for the memo; nil if not memoizable
	seedHash uint64
	memoGID  int32 // memoized successor state, or -1
	ok       bool
}

// scratch is the safety phase's reusable working set.
//
// dense/dirty implement the scalar closure: dense is a bit vector over the
// pair domain, only ever cleared word-by-word via the dirty list, so a
// closure touching k pairs costs O(k) regardless of how large the domain is
// (or grows to, under a demand-driven environment). amask/adone/touched are
// the mask closure's equivalent, indexed by packed-b state: accumulated and
// processed A-state masks plus a presence bitmap for O(touched) extraction
// and reset. arena backs every set built during a batch (closure results
// and canonical seed sets); it rewinds after each merge.
//
// There is deliberately no row cache here. compose.Lazy's read path is a
// single atomic load against arena-backed rows that never move, so caching
// slice headers bought nothing but a doubling-copy churn that dominated
// large-derivation profiles.
type scratch struct {
	stack []int32   // scalar closure DFS stack (pair indices)
	seeds [][]int32 // scalar φ seed pairs, bucketed by Int-event index
	dense []uint64  // scalar dense scratch bits over the pair domain
	dirty []int32   // word indices with at least one bit set in dense

	pstack  []int32  // mask closure stack (packed-b indices)
	amask   []uint64 // accumulated A-mask per packed-b state
	adone   []uint64 // processed A-mask per packed-b state
	touched []uint64 // presence bitmap over packed-b states
	minPb   int32    // touched span, valid when ntouch > 0
	maxPb   int32
	ntouch  int

	// mseedPbs/mseedMasks are the mask-path φ seeds, bucketed by Int-event
	// index: parallel slices of (packed-b state, A-mask) rather than one
	// struct slice, saving the 4 bytes of padding a 12-byte struct would
	// carry through the engine's largest transient buffers.
	mseedPbs   [][]int32
	mseedMasks [][]uint64

	// pbHint reports a cheap lower bound on the packed-b domain size, used
	// to size the mask arrays in one step instead of doubling up to it.
	pbHint func() int

	arena *pairArena // per-batch output storage
	// memoHits counts all closure-memo hits (Metrics.ClosureMemoHits);
	// memoOK only those resolving to a state rather than memoFail. The
	// latter fold into InternLookups/InternHits: "φ produced a set already
	// seen" is exactly what those counters mean, and counting a memo hit as
	// one lookup + one hit keeps them bit-identical to the memo-less
	// engine (an ok.J failure never probed the intern table there either).
	memoHits int
	memoOK   int
}

func newScratch(d *deriver) *scratch {
	sc := &scratch{
		seeds:      make([][]int32, len(d.intl)),
		mseedPbs:   make([][]int32, len(d.intl)),
		mseedMasks: make([][]uint64, len(d.intl)),
		arena:      newPairArena(),
	}
	// pbHint is a lower bound on the packed-b domain the mask arrays will
	// end up covering: the already-discovered composite state count under a
	// demand-driven environment (monotonic, so any value is a valid hint),
	// the full packed domain under an eager one. Growing straight to it
	// skips the intermediate doublings a cold scratch would otherwise
	// allocate and immediately outgrow.
	sc.pbHint = func() int {
		if d.lazy != nil {
			return d.lazy.NumStates()
		}
		if n := len(d.boff); n > 0 {
			return int(d.boff[n-1] + d.numBs[n-1])
		}
		return 0
	}
	return sc
}

// setBit records pair p in the scalar scratch, growing the dense array on
// demand (the pair domain grows during a closure when the environment is
// demand-driven). It reports whether p was newly set.
func (sc *scratch) setBit(p int32) bool {
	w := int(p >> 6)
	if w >= len(sc.dense) {
		grown := make([]uint64, max(2*len(sc.dense), w+64))
		copy(grown, sc.dense)
		sc.dense = grown
	}
	bit := uint64(1) << (uint(p) & 63)
	old := sc.dense[w]
	if old&bit != 0 {
		return false
	}
	if old == 0 {
		sc.dirty = append(sc.dirty, int32(w))
	}
	sc.dense[w] = old | bit
	return true
}

// extract converts the scalar scratch's working set into canonical sparse
// form in the scratch arena and resets the scratch for the next closure.
func (sc *scratch) extract() pairset {
	slices.Sort(sc.dirty)
	out := sc.arena.alloc(2 * len(sc.dirty))
	n := 0
	for _, w := range sc.dirty {
		out[n] = uint64(w)
		out[n+1] = sc.dense[w]
		n += 2
		sc.dense[w] = 0
	}
	sc.dirty = sc.dirty[:0]
	return out[:n]
}

// addMask ORs m into packed-b state pb's accumulated A-mask, growing the
// mask arrays on demand, and reports whether any bit was new.
func (sc *scratch) addMask(pb int32, m uint64) bool {
	w := int(pb)
	if w >= len(sc.amask) {
		n := max(2*len(sc.amask), w+64, sc.pbHint())
		g := make([]uint64, n)
		copy(g, sc.amask)
		sc.amask = g
		g = make([]uint64, n)
		copy(g, sc.adone)
		sc.adone = g
		g = make([]uint64, (n+63)/64)
		copy(g, sc.touched)
		sc.touched = g
	}
	old := sc.amask[w]
	nw := old | m
	if nw == old {
		return false
	}
	if old == 0 {
		sc.touched[w>>6] |= 1 << (uint(w) & 63)
		if sc.ntouch == 0 || pb < sc.minPb {
			sc.minPb = pb
		}
		if sc.ntouch == 0 || pb > sc.maxPb {
			sc.maxPb = pb
		}
		sc.ntouch++
	}
	sc.amask[w] = nw
	return true
}

// maskSeed adds (pb, m) to the mask-closure working set and schedules pb
// for processing if anything was new. The worklist doubles explicitly:
// frontier walks push it into the megabyte range, where append's gentler
// growth factor would reallocate (and copy) several times more often.
func (sc *scratch) maskSeed(pb int32, m uint64) {
	if sc.addMask(pb, m) {
		if len(sc.pstack) == cap(sc.pstack) {
			g := make([]int32, len(sc.pstack), max(2*cap(sc.pstack), 1024))
			copy(g, sc.pstack)
			sc.pstack = g
		}
		sc.pstack = append(sc.pstack, pb)
	}
}

// pushSeed appends one (pb, mask) seed to Int-event bucket ii, keeping the
// parallel slices in step and doubling their capacity explicitly, for the
// same reason maskSeed does.
func (sc *scratch) pushSeed(ii int32, pb int32, m uint64) {
	ps := sc.mseedPbs[ii]
	if len(ps) == cap(ps) {
		c := max(2*cap(ps), 1024)
		g := make([]int32, len(ps), c)
		copy(g, ps)
		ps = g
		gm := make([]uint64, len(sc.mseedMasks[ii]), c)
		copy(gm, sc.mseedMasks[ii])
		sc.mseedMasks[ii] = gm
	}
	sc.mseedPbs[ii] = append(ps, pb)
	sc.mseedMasks[ii] = append(sc.mseedMasks[ii], m)
}

// resetMask clears the mask-closure working set after an aborted walk (the
// successful path clears during extraction instead).
func (sc *scratch) resetMask() {
	if sc.ntouch == 0 {
		return
	}
	for wi := int(sc.minPb) >> 6; wi <= int(sc.maxPb)>>6; wi++ {
		tw := sc.touched[wi]
		sc.touched[wi] = 0
		for tw != 0 {
			pb := wi<<6 + bits.TrailingZeros64(tw)
			tw &= tw - 1
			sc.amask[pb] = 0
			sc.adone[pb] = 0
		}
	}
	sc.ntouch = 0
	sc.pstack = sc.pstack[:0]
}

// stripePacker assembles a canonical pairset from nondecreasing word
// contributions: add merges bits into the pending word while the index
// repeats and flushes it when the index advances. Callers guarantee
// nondecreasing word indices (ascending packed-b stripes have ascending
// base words, and a stripe spills into at most the following word).
type stripePacker struct {
	out []uint64
	n   int
	cw  int64
	cv  uint64
}

func (p *stripePacker) add(w int64, b uint64) {
	if b == 0 {
		return
	}
	if w == p.cw {
		p.cv |= b
		return
	}
	if p.cv != 0 {
		p.out[p.n] = uint64(p.cw)
		p.out[p.n+1] = p.cv
		p.n += 2
	}
	p.cw, p.cv = w, b
}

// addStripe places an A-state mask at packed-b state pb's stripe of the
// pair domain (pair index base pb×numA).
func (p *stripePacker) addStripe(pb int32, m uint64, numA int) {
	base := int64(pb) * int64(numA)
	off := uint(base) & 63
	p.add(base>>6, m<<off)
	p.add(base>>6+1, m>>(64-off)) // off == 0 shifts by 64 → 0: no spill
}

func (p *stripePacker) flush() int {
	if p.cv != 0 {
		p.out[p.n] = uint64(p.cw)
		p.out[p.n+1] = p.cv
		p.n += 2
	}
	return p.n
}

// extractMask converts the mask-closure working set into canonical sparse
// form in the scratch arena, clearing the working set as it goes. The arena
// allocation is a safe upper bound (two words per touched packed-b state,
// capped by the touched span) shrunk to the packed size afterwards.
func (sc *scratch) extractMask(numA int) pairset {
	if sc.ntouch == 0 {
		return pairset{}
	}
	base0 := int64(sc.minPb) * int64(numA)
	base1 := int64(sc.maxPb)*int64(numA) + int64(numA) - 1
	bound := int(base1>>6-base0>>6) + 2
	if b2 := 2 * sc.ntouch; b2 < bound {
		bound = b2
	}
	pk := stripePacker{out: sc.arena.alloc(2 * bound)}
	for wi := int(sc.minPb) >> 6; wi <= int(sc.maxPb)>>6; wi++ {
		tw := sc.touched[wi]
		sc.touched[wi] = 0
		for tw != 0 {
			pb := int32(wi<<6 + bits.TrailingZeros64(tw))
			tw &= tw - 1
			pk.addStripe(pb, sc.amask[pb], numA)
			sc.amask[pb] = 0
			sc.adone[pb] = 0
		}
	}
	n := pk.flush()
	sc.arena.shrinkLast(2*bound - n)
	sc.ntouch = 0
	return pk.out[:n]
}

// packMaskState packs the current mask-closure working set into a
// canonical pairset in the scratch arena without clearing it — the walk can
// continue from the packed state. The mask expansion path uses this for
// seed-set canonicalization: seeding amask deduplicates and orders the raw
// (pb, mask) contributions as a side effect, so no sort is needed.
func (sc *scratch) packMaskState(numA int) pairset {
	if sc.ntouch == 0 {
		return pairset{}
	}
	base0 := int64(sc.minPb) * int64(numA)
	base1 := int64(sc.maxPb)*int64(numA) + int64(numA) - 1
	bound := int(base1>>6-base0>>6) + 2
	if b2 := 2 * sc.ntouch; b2 < bound {
		bound = b2
	}
	pk := stripePacker{out: sc.arena.alloc(2 * bound)}
	for wi := int(sc.minPb) >> 6; wi <= int(sc.maxPb)>>6; wi++ {
		tw := sc.touched[wi]
		for tw != 0 {
			pb := int32(wi<<6 + bits.TrailingZeros64(tw))
			tw &= tw - 1
			pk.addStripe(pb, sc.amask[pb], numA)
		}
	}
	n := pk.flush()
	sc.arena.shrinkLast(2*bound - n)
	return pk.out[:n]
}

// packPairs sorts ps in place and packs it (duplicates welcome) into a
// canonical pairset in the scratch arena — the scalar path's seed-set
// canonicalization.
func (sc *scratch) packPairs(ps []int32) pairset {
	slices.Sort(ps)
	bound := 2 * len(ps)
	out := sc.arena.alloc(bound)
	n := 0
	var cw int64 = -1
	var cv uint64
	for _, p := range ps {
		w := int64(p >> 6)
		b := uint64(1) << (uint(p) & 63)
		if w == cw {
			cv |= b
			continue
		}
		if cw >= 0 {
			out[n] = uint64(cw)
			out[n+1] = cv
			n += 2
		}
		cw, cv = w, b
	}
	if cw >= 0 {
		out[n] = uint64(cw)
		out[n+1] = cv
		n += 2
	}
	sc.arena.shrinkLast(bound - n)
	return out[:n]
}

// rowsPacked returns the rows of a packed-b id: the demand-driven path goes
// straight to the environment (lazy ids are packed ids), the eager path
// indexes the per-variant tables.
func (d *deriver) rowsPacked(v int, pb int32) ([]bedge, []int32) {
	if d.lazy != nil {
		return d.lazy.Rows(spec.State(pb))
	}
	return d.bext[v][pb-d.boff[v]], d.bintl[v][pb-d.boff[v]]
}

// closure computes the smallest pair set containing seeds that is closed
// under B's internal moves and under joint (ψ-step) external moves — the
// paper's "reachable without converter participation" closure shared by
// h.ε and φ. ok reports the ok.J predicate: it is false when some reached
// pair lets B emit an external event the service does not then allow;
// offend is the first such event encountered (meaningful only when !ok).
//
// The walk aborts on the first violation: a failed set is discarded by
// every caller (φ omits the transition, h.ε fails the derivation), so
// nothing downstream ever observes the partially built set, and the
// counterexample machinery (witness.go) re-derives a shortest offending
// run independently of how far this walk got. The two engines may abort at
// different violations, but whether any violation exists is a property of
// the full closure and thus engine-independent.
func (d *deriver) closure(sc *scratch, seeds []int32) (out pairset, ok bool, offend spec.Event) {
	if d.useMask {
		numA := int32(d.numA)
		for _, p := range seeds {
			sc.maskSeed(p/numA, 1<<(uint(p)%uint(numA)))
		}
		return d.maskWalk(sc)
	}
	numA := int32(d.numA)
	stack := sc.stack[:0]
	ok = true
	for _, p := range seeds {
		if sc.setBit(p) {
			stack = append(stack, p)
		}
	}
walk:
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a := p % numA
		pb := p / numA
		v := d.variantOf(pb)
		ext, ints := d.rowsPacked(v, pb)
		for _, t := range ints {
			q := (d.boff[v]+t)*numA + a
			if sc.setBit(q) {
				stack = append(stack, q)
			}
		}
		arow := int(a) * d.nev
		for _, ed := range ext {
			if !d.isExt[ed.Ev] {
				continue // Int event: needs the converter, not closure
			}
			a2 := d.psi[arow+int(ed.Ev)]
			if a2 < 0 {
				offend = d.events[ed.Ev]
				ok = false
				break walk
			}
			q := (d.boff[v]+ed.To)*numA + a2
			if sc.setBit(q) {
				stack = append(stack, q)
			}
		}
	}
	sc.stack = stack[:0]
	return sc.extract(), ok, offend
}

// maskWalk runs the word-parallel closure from the working set seeded via
// maskSeed. Each dequeue takes a packed-b state's unprocessed A-mask delta
// and serves every A-state in it with one row scan: internal B-moves carry
// the delta unchanged, joint external moves map it through the ψ bit
// table, and a nonzero intersection with badA is an ok.J violation.
//
// The worklist runs FIFO: breadth-first wavefronts let a state's mask bits
// accumulate while the rest of its wavefront is processed, so each row
// scan serves a fat delta. LIFO order on the pipeline-shaped products this
// engine is sized for degenerates to one-bit deltas — one row scan per
// pair, the very cost the mask engine exists to avoid. Order cannot change
// the result: the closure is the unique least fixpoint of a monotone
// system, and the violation verdict is a property of that fixpoint.
func (d *deriver) maskWalk(sc *scratch) (out pairset, ok bool, offend spec.Event) {
	for qh := 0; qh < len(sc.pstack); qh++ {
		pb := sc.pstack[qh]
		delta := sc.amask[pb] &^ sc.adone[pb]
		if delta == 0 {
			continue
		}
		sc.adone[pb] |= delta
		v := d.variantOf(pb)
		ext, ints := d.rowsPacked(v, pb)
		for _, t := range ints {
			tb := d.boff[v] + t
			if sc.addMask(tb, delta) {
				sc.pstack = append(sc.pstack, tb)
			}
		}
		for _, ed := range ext {
			ev := int(ed.Ev)
			if !d.isExt[ev] {
				continue // Int event: needs the converter, not closure
			}
			if delta&d.badA[ev] != 0 {
				sc.resetMask()
				return nil, false, d.events[ev]
			}
			var m2 uint64
			for dm := delta; dm != 0; dm &= dm - 1 {
				m2 |= d.psiBit[bits.TrailingZeros64(dm)*d.nev+ev]
			}
			tb := d.boff[v] + ed.To
			if sc.addMask(tb, m2) {
				sc.pstack = append(sc.pstack, tb)
			}
		}
	}
	sc.pstack = sc.pstack[:0]
	return sc.extractMask(d.numA), true, offend
}

// expandState computes φ(J, e) for every Int event e of one frontier
// state, writing len(intl) results into out. J's pairs are walked once,
// bucketing the e-labelled external B-edges into per-event seed sets; each
// non-empty seed set is first probed against the closure memo and, on a
// miss, runs one closure.
func (d *deriver) expandState(sc *scratch, si int, out []phiResult) {
	if d.useMask {
		d.expandStateMask(sc, si, out)
		return
	}
	numA := int32(d.numA)
	for i := range sc.seeds {
		sc.seeds[i] = sc.seeds[i][:0]
	}
	d.table.get(int32(si)).forEach(func(p int32) {
		a := p % numA
		pb := p / numA
		v := d.variantOf(pb)
		ext, _ := d.rowsPacked(v, pb)
		for _, ed := range ext {
			if ii := d.intlIndex[ed.Ev]; ii >= 0 {
				sc.seeds[ii] = append(sc.seeds[ii], (d.boff[v]+ed.To)*numA+a)
			}
		}
	})
	for ei := range out {
		out[ei] = phiResult{memoGID: -1}
		r := &out[ei]
		if len(sc.seeds[ei]) == 0 {
			r.ok = true // vacuous successor
			r.hash = emptyPairsetHash
			continue
		}
		if closureMemoEnabled && 2*len(sc.seeds[ei]) <= closureMemoMaxSeedWords {
			seedSet := sc.packPairs(sc.seeds[ei])
			seedHash := seedSet.hash()
			if res, found := d.memo.lookup(seedSet, seedHash); found {
				sc.memoHits++
				if res != memoFail {
					sc.memoOK++
					r.ok = true
					r.memoGID = res
				}
				continue
			}
			r.seedSet, r.seedHash = seedSet, seedHash
		}
		set, ok, _ := d.closure(sc, sc.seeds[ei])
		r.set, r.ok = set, ok
		if ok {
			r.hash = set.hash()
		}
	}
}

// expandStateMask is expandState on the mask engine. J's canonical pair
// order is packed-b-major, so one linear walk yields each packed-b state's
// A-mask with consecutive pairs grouped; each group costs one row scan to
// bucket its Int-successor (pb, mask) seeds.
func (d *deriver) expandStateMask(sc *scratch, si int, out []phiResult) {
	numA := int32(d.numA)
	for i := range sc.mseedPbs {
		sc.mseedPbs[i] = sc.mseedPbs[i][:0]
		sc.mseedMasks[i] = sc.mseedMasks[i][:0]
	}
	curPb := int32(-1)
	var curMask uint64
	flush := func() {
		if curMask == 0 {
			return
		}
		v := d.variantOf(curPb)
		ext, _ := d.rowsPacked(v, curPb)
		for _, ed := range ext {
			if ii := d.intlIndex[ed.Ev]; ii >= 0 {
				sc.pushSeed(ii, d.boff[v]+ed.To, curMask)
			}
		}
	}
	d.table.get(int32(si)).forEach(func(p int32) {
		pb := p / numA
		if pb != curPb {
			flush()
			curPb, curMask = pb, 0
		}
		curMask |= 1 << (uint(p) % uint(numA))
	})
	flush()
	for ei := range out {
		out[ei] = phiResult{memoGID: -1}
		r := &out[ei]
		if len(sc.mseedPbs[ei]) == 0 {
			r.ok = true // vacuous successor
			r.hash = emptyPairsetHash
			continue
		}
		for i, pb := range sc.mseedPbs[ei] {
			sc.maskSeed(pb, sc.mseedMasks[ei][i])
		}
		if closureMemoEnabled && 2*sc.ntouch <= closureMemoMaxSeedWords {
			// Seeding amask canonicalized the raw seed list for free;
			// pack it (without disturbing the walk state) for the memo key.
			seedSet := sc.packMaskState(d.numA)
			seedHash := seedSet.hash()
			if res, found := d.memo.lookup(seedSet, seedHash); found {
				sc.memoHits++
				if res != memoFail {
					sc.memoOK++
					r.ok = true
					r.memoGID = res
				}
				sc.resetMask()
				continue
			}
			r.seedSet, r.seedHash = seedSet, seedHash
		}
		set, ok, _ := d.maskWalk(sc)
		r.set, r.ok = set, ok
		if ok {
			r.hash = set.hash()
		}
	}
}

// expandBatch computes φ results for frontier states [lo, hi) into results
// ((hi-lo)×len(intl) entries, frontier order).
func (d *deriver) expandBatch(lo, hi int, results []phiResult) {
	ne := len(d.intl)
	for i := 0; i < hi-lo; i++ {
		d.expandState(d.sc, lo+i, results[i*ne:(i+1)*ne])
	}
}
