package idindex

import (
	"math/rand"
	"testing"
)

// maxProbe returns the longest distance any entry sits from its home slot.
func maxProbe(ix *Index) int {
	mask := uint64(len(ix.slots) - 1)
	worst := 0
	for i, s := range ix.slots {
		if s.id == 0 {
			continue
		}
		home := (s.h * fib) >> ix.shift
		if d := int((uint64(i) - home) & mask); d > worst {
			worst = d
		}
	}
	return worst
}

// checkExactKeys inserts keys (duplicates skipped, as an interner does)
// against a Go-map reference and checks every answer, then that absent keys
// stay absent and the longest probe stays within maxProbeBound.
func checkExactKeys(t *testing.T, keys []uint64, absent []uint64, maxProbeBound int) {
	t.Helper()
	var ix Index
	ref := map[uint64]int32{}
	for _, k := range keys {
		got := ix.Find(k, nil)
		want, ok := ref[k]
		if !ok {
			want = -1
		}
		if got != want {
			t.Fatalf("Find(%#x) = %d before insert, want %d", k, got, want)
		}
		if ok {
			continue
		}
		id := int32(len(ref))
		ref[k] = id
		ix.Insert(k, id)
	}
	if ix.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(ref))
	}
	for k, id := range ref {
		if got := ix.Find(k, nil); got != id {
			t.Fatalf("Find(%#x) = %d, want %d", k, got, id)
		}
	}
	for _, k := range absent {
		if _, ok := ref[k]; ok {
			continue
		}
		if got := ix.Find(k, nil); got != -1 {
			t.Fatalf("Find(%#x) = %d for an absent key, want -1", k, got)
		}
	}
	if 4*ix.Len() > 3*len(ix.slots) {
		t.Fatalf("load %d/%d above 3/4", ix.Len(), len(ix.slots))
	}
	if p := maxProbe(&ix); p > maxProbeBound {
		t.Fatalf("longest probe %d slots over %d entries in %d slots, want <= %d",
			p, ix.Len(), len(ix.slots), maxProbeBound)
	}
}

func TestIndexRandomKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = rng.Uint64()
		if i%7 == 0 && i > 0 {
			keys[i] = keys[rng.Intn(i)] // repeats, as successor interning sees
		}
	}
	absent := make([]uint64, 5000)
	for i := range absent {
		absent[i] = rng.Uint64()
	}
	checkExactKeys(t, keys, absent, 64)
}

// TestIndexStridedKeys feeds the key shapes mixed-radix interning produces:
// multiples of a power of two (every low bit zero) and of large odd strides
// (one digit of a wide tuple varying). Without the Fibonacci multiply these
// pile into a few home slots; the probe bound catches that. Random keys at
// the same load reach probes of about 40, so these bounds are tighter than
// the random case's.
func TestIndexStridedKeys(t *testing.T) {
	for _, stride := range []uint64{1, 1 << 16, 1 << 32, 1 << 40, 3 * 5 * 7 * 11 * 13 * 17 * 19, 1<<33 + 1, 4_294_967_311} {
		keys := make([]uint64, 40000)
		for i := range keys {
			keys[i] = uint64(i) * stride
		}
		absent := make([]uint64, 1000)
		for i := range absent {
			absent[i] = uint64(len(keys)+i)*stride + 1
		}
		checkExactKeys(t, keys, absent, 16)
	}
	// Two digits varying: base + i·s1 + j·s2, as a synchronized step moves
	// two components at once.
	var keys []uint64
	for i := uint64(0); i < 200; i++ {
		for j := uint64(0); j < 200; j++ {
			keys = append(keys, 12345+i*(1<<34)+j*(1<<17))
		}
	}
	checkExactKeys(t, keys, nil, 16)
}

// TestIndexSharedHashUsesEq gives distinct values the same hash, as a
// hash-consing interner may: Find must pick the entry eq accepts, and miss
// when eq accepts none.
func TestIndexSharedHashUsesEq(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var ix Index
	var vals []int // id → value
	ref := map[int]int32{}
	hashOf := func(v int) uint64 { return uint64(v % 13) } // 13 hashes for many values
	for n := 0; n < 3000; n++ {
		v := rng.Intn(2000)
		eq := func(id int32) bool { return vals[id] == v }
		got := ix.Find(hashOf(v), eq)
		want, ok := ref[v]
		if !ok {
			want = -1
		}
		if got != want {
			t.Fatalf("Find(value %d) = %d, want %d", v, got, want)
		}
		if !ok {
			id := int32(len(vals))
			vals = append(vals, v)
			ref[v] = id
			ix.Insert(hashOf(v), id)
		}
	}
	for v, id := range ref {
		if got := ix.Find(hashOf(v), func(i int32) bool { return vals[i] == v }); got != id {
			t.Fatalf("Find(value %d) = %d, want %d", v, got, id)
		}
	}
	if got := ix.Find(hashOf(5), func(int32) bool { return false }); got != -1 {
		t.Fatalf("Find with an eq that accepts nothing = %d, want -1", got)
	}
}

// TestIndexGrowth crosses several doublings and checks that every entry
// survives each one, ids included.
func TestIndexGrowth(t *testing.T) {
	var ix Index
	if ix.Find(7, nil) != -1 {
		t.Fatal("zero Index found a key")
	}
	sizes := map[int]bool{}
	for i := 0; i < 1<<14; i++ {
		ix.Insert(uint64(i)*0x1000193, int32(i))
		sizes[len(ix.slots)] = true
		if i&(i+1) == 0 { // after 1, 3, 7, 15, ... entries
			for j := 0; j <= i; j++ {
				if got := ix.Find(uint64(j)*0x1000193, nil); got != int32(j) {
					t.Fatalf("after %d inserts: Find(entry %d) = %d", i+1, j, got)
				}
			}
		}
	}
	if len(sizes) < 8 {
		t.Fatalf("slot array took %d sizes, want at least 8 doublings", len(sizes))
	}
}
