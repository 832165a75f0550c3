package workload

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"stacktrack/internal/rng"
)

func TestSetMixProportions(t *testing.T) {
	mix := SetMix{KeyRange: 1000, MutatePct: 20}
	r := rng.New(1)
	counts := map[SetOp]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		op, key := mix.Next(r)
		if key < 1 || key > 1000 {
			t.Fatalf("key %d out of range", key)
		}
		counts[op]++
	}
	ins := float64(counts[SetInsert]) / n
	del := float64(counts[SetDelete]) / n
	rd := float64(counts[SetContains]) / n
	if ins < 0.08 || ins > 0.12 || del < 0.08 || del > 0.12 || rd < 0.77 || rd > 0.83 {
		t.Fatalf("mix off: ins=%.3f del=%.3f read=%.3f", ins, del, rd)
	}
}

func TestQueueMixProportions(t *testing.T) {
	mix := QueueMix{MutatePct: 20, ValRange: 10}
	r := rng.New(2)
	counts := map[QueueOp]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		op, _ := mix.Next(r)
		counts[op]++
	}
	if f := float64(counts[QueuePeek]) / n; f < 0.77 || f > 0.83 {
		t.Fatalf("peek fraction %.3f", f)
	}
}

func TestSampleKeysDistinctSortedInRange(t *testing.T) {
	keys := SampleKeys(7, 1000, 2000)
	if len(keys) != 1000 {
		t.Fatalf("got %d keys", len(keys))
	}
	seen := map[uint64]bool{}
	for i, k := range keys {
		if k < 1 || k > 2000 {
			t.Fatalf("key %d out of range", k)
		}
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
		if i > 0 && keys[i-1] >= k {
			t.Fatal("keys not sorted")
		}
	}
}

func TestSampleKeysDeterministic(t *testing.T) {
	a := SampleKeys(9, 100, 500)
	b := SampleKeys(9, 100, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampleKeys not deterministic")
		}
	}
}

func TestSampleKeysFullRange(t *testing.T) {
	keys := SampleKeys(3, 10, 10)
	for i, k := range keys {
		if k != uint64(i+1) {
			t.Fatalf("full-range sample must be 1..10, got %v", keys)
		}
	}
}

func TestSampleKeysPanicsWhenOverdrawn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SampleKeys(1, 11, 10)
}

func TestSampleKeysProperty(t *testing.T) {
	f := func(seed uint64, nRaw, rangeRaw uint16) bool {
		rangeN := uint64(rangeRaw)%500 + 1
		n := int(uint64(nRaw) % (rangeN + 1))
		keys := SampleKeys(seed, n, rangeN)
		if len(keys) != n {
			return false
		}
		for i, k := range keys {
			if k < 1 || k > rangeN {
				return false
			}
			if i > 0 && keys[i-1] >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// referenceSampleKeys is the straightforward SampleKeys: Floyd's algorithm
// over a Go map, then a sort. SampleKeys must return exactly its keys.
func referenceSampleKeys(seed uint64, n int, keyRange uint64) []uint64 {
	r := rng.New(seed)
	chosen := make(map[uint64]struct{}, n)
	for j := keyRange - uint64(n) + 1; j <= keyRange; j++ {
		k := 1 + r.Uint64n(j)
		if _, dup := chosen[k]; dup {
			k = j
		}
		chosen[k] = struct{}{}
	}
	keys := make([]uint64, 0, n)
	for k := range chosen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func TestSampleKeysMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 1000, 100000} {
		un := uint64(n)
		// 64n and 64n+1 straddle the switch from the bitmap to the buckets.
		for _, keyRange := range []uint64{un, 2 * un, 2*un + 1, 64 * un, 64*un + 1, 1 << 40, 1 << 63} {
			seeds := []uint64{0, 1, 7, 0xdeadbeef}
			if n == 100000 {
				seeds = seeds[:2]
			}
			for _, seed := range seeds {
				got := SampleKeys(seed, n, keyRange)
				if want := referenceSampleKeys(seed, n, keyRange); !slices.Equal(got, want) {
					t.Fatalf("SampleKeys(%d, %d, %d) differs from the reference", seed, n, keyRange)
				}
			}
		}
	}
}

// TestSampleKeysMaxRange covers keyRange = 2^64−1, where a loop that
// counts j up to keyRange wraps to 0 and draws from an empty range.
func TestSampleKeysMaxRange(t *testing.T) {
	keys := SampleKeys(1, 3, math.MaxUint64)
	if len(keys) != 3 || !slices.IsSorted(keys) || keys[0] == 0 || keys[0] == keys[1] || keys[1] == keys[2] {
		t.Fatalf("SampleKeys(1, 3, MaxUint64) = %v, want 3 distinct sorted keys", keys)
	}
	if keys := SampleKeys(1, 0, math.MaxUint64); len(keys) != 0 {
		t.Fatalf("SampleKeys(1, 0, MaxUint64) = %v, want none", keys)
	}
}

// BenchmarkSampleKeys draws the tx-scan prefill: 100,000 keys of 200,000.
func BenchmarkSampleKeys(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SampleKeys(uint64(i), 100000, 200000)
	}
}

// TestSampleKeysReusedScratch: draws that follow a larger one run on its
// dirty scratch, and must still return exactly the reference's keys.
func TestSampleKeysReusedScratch(t *testing.T) {
	for _, c := range []struct {
		n        int
		keyRange uint64
	}{{5000, 1 << 40}, {5, 10}, {1000, 2000}, {4999, 5000}} {
		if got, want := SampleKeys(3, c.n, c.keyRange), referenceSampleKeys(3, c.n, c.keyRange); !slices.Equal(got, want) {
			t.Fatalf("SampleKeys(3, %d, %d) differs from the reference", c.n, c.keyRange)
		}
	}
}
