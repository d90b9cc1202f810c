// Package idindex maps 64-bit hashes to dense int32 ids. It is the one
// hash index behind the derivation's three interners: composite tuples in
// compose (keyed by their exact mixed-radix key) and, in core, the safety
// phase's hash-consed pair sets and closure-memo seed sets (keyed by a set
// hash that distinct sets may share).
//
// The table is open addressing over a power-of-two slot array: Fibonacci
// hashing picks a key's home slot, collisions probe linearly, and the array
// doubles before it passes a load of 3/4. Each slot stores the full hash
// beside its id, so growth never calls back into the interner, and a probe
// compares hashes before it asks the caller whether an id matches. There is
// no per-key allocation and no deletion; interners only ever add.
package idindex

import "math/bits"

// fib is 2^64 divided by the golden ratio, rounded to odd. Multiplying by it
// carries every bit of the hash into the top bits that pick the home slot,
// so strided keys (multiples of a large power of two, mixed-radix keys that
// differ in one digit) spread like random ones.
const fib = 0x9E3779B97F4A7C15

type slot struct {
	h  uint64
	id int32 // the entry's id + 1; 0 marks an empty slot
}

// Index maps hashes to ids. The zero value is an empty index ready for use.
// It is not safe for concurrent use.
type Index struct {
	slots []slot
	shift uint // 64 − log2(len(slots)): a hash's home slot is (h·fib) >> shift
	n     int
}

// Len returns the number of entries.
func (ix *Index) Len() int { return ix.n }

// Find returns the id of an entry stored under h for which eq reports true,
// or -1 when there is none. Entries sharing h are offered to eq in probe
// order. A nil eq accepts the first entry stored under h: the form for
// callers whose hash is the exact key.
func (ix *Index) Find(h uint64, eq func(id int32) bool) int32 {
	if ix.n == 0 {
		return -1
	}
	mask := uint64(len(ix.slots) - 1)
	for i := (h * fib) >> ix.shift; ; i = (i + 1) & mask {
		s := &ix.slots[i]
		if s.id == 0 {
			return -1
		}
		if s.h == h && (eq == nil || eq(s.id-1)) {
			return s.id - 1
		}
	}
}

// Insert adds id under h. It does not look for an existing entry: a caller
// that must not duplicate one calls Find first. id must be non-negative.
func (ix *Index) Insert(h uint64, id int32) {
	if 4*(ix.n+1) > 3*len(ix.slots) {
		ix.grow()
	}
	ix.place(h, id+1)
	ix.n++
}

func (ix *Index) place(h uint64, id1 int32) {
	mask := uint64(len(ix.slots) - 1)
	i := (h * fib) >> ix.shift
	for ix.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = slot{h: h, id: id1}
}

func (ix *Index) grow() {
	old := ix.slots
	size := max(2*len(old), 16)
	ix.slots = make([]slot, size)
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.id != 0 {
			ix.place(s.h, s.id)
		}
	}
}
