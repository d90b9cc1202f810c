// Tuple interning for the demand-driven composition.
//
// LazyMany assigns composite state ids by interning the component-state
// tuple of each discovered state. The key scheme is tiered by the full
// product count (the product of the component state counts):
//
//   - at most denseInternLimit (2^30): the tuple's mixed-radix uint64 key
//     indexes a paged direct-mapped array, one indexed load per lookup.
//     Pages are allocated only for the key ranges the exploration touches
//     (a demand-driven walk of a 2^28-state product may touch a few
//     thousand pages out of tens of thousands);
//   - above that, while the product fits a uint64: the same key in an
//     idindex.Index, an open-addressing table whose hash is the exact key;
//   - past uint64 (dozens of components): a string key over the raw tuple
//     bytes in a Go map.
//
// On both radix tiers Lazy computes an expanding state's key once (key)
// and each successor's in O(1) from the place values in strides, because a
// step changes one component (two for a synchronized step). The successor
// tuple is built and copied only when its key is new.
package compose

import "protoquot/internal/idindex"

// internPageShift sizes the dense-intern pages: 1<<16 int32 entries =
// 256 KiB per page, allocated on first touch of the key range.
const internPageShift = 16

type tupleIntern struct {
	// strides are the mixed-radix place values: a tuple's key is
	// Σ tuple[ci]·strides[ci], the Horner value over the component state
	// counts. Set only when radixOK.
	strides []uint64
	radixOK bool

	pages   [][]int32 // paged direct-mapped by radix key; nil page = untouched
	pageLen int       // entries per page (smaller than a full page only for tiny products)
	hashed  idindex.Index
	seenS   map[string]int32
	keyBuf  []byte
}

// newTupleIntern builds the intern for a compiled component list.
func newTupleIntern(tb *compTables, numStates []int) *tupleIntern {
	ti := &tupleIntern{radixOK: tb.radixOK}
	switch {
	case !tb.radixOK:
		ti.seenS = make(map[string]int32)
		ti.keyBuf = make([]byte, 4*len(numStates))
		return ti
	case tb.product <= denseInternLimit:
		ti.pages = make([][]int32, (tb.product>>internPageShift)+1)
		ti.pageLen = 1 << internPageShift
		if tb.product < uint64(ti.pageLen) {
			ti.pageLen = int(tb.product) // single partial page
		}
	}
	ti.strides = make([]uint64, len(numStates))
	stride := uint64(1)
	for ci := len(numStates) - 1; ci >= 0; ci-- {
		ti.strides[ci] = stride
		stride *= uint64(numStates[ci])
	}
	return ti
}

// key returns the mixed-radix key of a tuple. Radix tiers only.
func (ti *tupleIntern) key(tuple []int32) uint64 {
	k := uint64(0)
	for ci, s := range tuple {
		k += uint64(s) * ti.strides[ci]
	}
	return k
}

// internKey returns the id of the composite state with the given radix key.
// If the key is new it is assigned the id next and isNew is true (the
// caller records the tuple under that id). Not safe for concurrent use;
// Lazy serializes on its mutex.
func (ti *tupleIntern) internKey(key uint64, next int32) (id int32, isNew bool) {
	if ti.pages != nil {
		pg := ti.pages[key>>internPageShift]
		if pg == nil {
			pg = make([]int32, ti.pageLen)
			for i := range pg {
				pg[i] = -1
			}
			ti.pages[key>>internPageShift] = pg
		}
		slot := &pg[key&(1<<internPageShift-1)]
		if *slot >= 0 {
			return *slot, false
		}
		*slot = next
		return next, true
	}
	if id := ti.hashed.Find(key, nil); id >= 0 {
		return id, false
	}
	ti.hashed.Insert(key, next)
	return next, true
}

// internTuple is internKey for the string tier, keyed by the tuple itself.
func (ti *tupleIntern) internTuple(tuple []int32, next int32) (id int32, isNew bool) {
	for ci, s := range tuple {
		ti.keyBuf[4*ci] = byte(s)
		ti.keyBuf[4*ci+1] = byte(s >> 8)
		ti.keyBuf[4*ci+2] = byte(s >> 16)
		ti.keyBuf[4*ci+3] = byte(s >> 24)
	}
	if id, ok := ti.seenS[string(ti.keyBuf)]; ok {
		return id, false
	}
	ti.seenS[string(ti.keyBuf)] = next
	return next, true
}
