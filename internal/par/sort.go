package par

import (
	"math/bits"
	"slices"
	"sync"
)

// parallelSortMin is the slice length below which SortPairs sorts in one
// range; splitting tiny inputs costs more than it saves.
const parallelSortMin = 1 << 14

// SortInt64s sorts a in ascending order, in parallel for large inputs: it
// is SortPairs with an all-zero value column.
func SortInt64s(a []int64) {
	SortPairs(a, make([]int64, len(a)))
}

// SortPairs sorts the parallel slices keys and vals lexicographically by
// (key, val), permuting both together. It is the building block of the
// undirected "sort-first" table-to-graph conversion (§2.4), ordering
// symmetrized edge pairs so that each node's adjacency vector comes out
// sorted: each worker's range is radix sorted, then the ranges are merged
// pairwise, which requires no thread-safe data structures and exhibits no
// contention between workers. keys and vals must have equal length.
func SortPairs(keys, vals []int64) {
	if len(keys) != len(vals) {
		panic("par: SortPairs slices of unequal length")
	}
	n := len(keys)
	tmpK := make([]int64, n)
	tmpV := make([]int64, n)
	if n < parallelSortMin || Workers() == 1 {
		radixSortPairs(keys, vals, tmpK, tmpV)
		return
	}
	ranges := Split(n, Workers())
	For(n, func(lo, hi int) {
		radixSortPairs(keys[lo:hi], vals[lo:hi], tmpK[lo:hi], tmpV[lo:hi])
	})
	srcK, srcV := keys, vals
	dstK, dstV := tmpK, tmpV
	runs := ranges
	for len(runs) > 1 {
		merged := make([]Range, 0, (len(runs)+1)/2)
		var wg sync.WaitGroup
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				r := runs[i]
				wg.Add(1)
				go func() {
					defer wg.Done()
					copy(dstK[r.Lo:r.Hi], srcK[r.Lo:r.Hi])
					copy(dstV[r.Lo:r.Hi], srcV[r.Lo:r.Hi])
				}()
				merged = append(merged, r)
				continue
			}
			a, b := runs[i], runs[i+1]
			wg.Add(1)
			go func() {
				defer wg.Done()
				mergePairs(dstK[a.Lo:b.Hi], dstV[a.Lo:b.Hi],
					srcK[a.Lo:a.Hi], srcV[a.Lo:a.Hi],
					srcK[b.Lo:b.Hi], srcV[b.Lo:b.Hi])
			}()
			merged = append(merged, Range{a.Lo, b.Hi})
		}
		wg.Wait()
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
		runs = merged
	}
	if n > 0 && &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}

func mergePairs(dstK, dstV, aK, aV, bK, bV []int64) {
	i, j, k := 0, 0, 0
	for i < len(aK) && j < len(bK) {
		if aK[i] < bK[j] || (aK[i] == bK[j] && aV[i] <= bV[j]) {
			dstK[k], dstV[k] = aK[i], aV[i]
			i++
		} else {
			dstK[k], dstV[k] = bK[j], bV[j]
			j++
		}
		k++
	}
	for ; i < len(aK); i++ {
		dstK[k], dstV[k] = aK[i], aV[i]
		k++
	}
	for ; j < len(bK); j++ {
		dstK[k], dstV[k] = bK[j], bV[j]
		k++
	}
}

// digitBits caps the radix sort's digit width (2 048 cache-resident
// counters); smaller inputs take narrower digits, at most 2n counters each.
const digitBits = 11

// radixSortPairs sorts (keys, vals) lexicographically, using tmpK and tmpV
// as scratch. A pair is the number (key − min key) << w | (val − min val),
// w the bit width of the value span. If that fits in 64 bits, as dense ids
// do, an LSD radix sort orders the numbers over only the digits the spans
// fill (25K node ids take three passes), with every digit's histogram
// counted in one pass and a digit equal for every element skipped. Wider
// pairs are split by the key's top digit and each part sorted the same way.
func radixSortPairs(keys, vals, tmpK, tmpV []int64) {
	n := len(keys)
	if n < 2 {
		return
	}
	minK, maxK, minV, maxV := keys[0], keys[0], vals[0], vals[0]
	for i, k := range keys {
		minK, maxK = min(minK, k), max(maxK, k)
		minV, maxV = min(minV, vals[i]), max(maxV, vals[i])
	}
	kb, w := uint(bits.Len64(uint64(maxK-minK))), uint(bits.Len64(uint64(maxV-minV)))
	if kb+w == 0 {
		return
	}
	width := min(digitBits, uint(bits.Len(uint(n))))
	if kb+w > 64 {
		width = min(width, kb)
		s := kb - width
		ends := make([]int, 1<<width)
		for _, k := range keys {
			ends[uint64(k-minK)>>s]++
		}
		sum := 0
		for d, c := range ends {
			ends[d], sum = sum, sum+c
		}
		for i, k := range keys {
			d := uint64(k-minK) >> s
			tmpK[ends[d]], tmpV[ends[d]] = k, vals[i]
			ends[d]++
		}
		copy(keys, tmpK)
		copy(vals, tmpV)
		lo := 0
		for _, hi := range ends {
			if hi-lo > 1 {
				radixSortPairs(keys[lo:hi], vals[lo:hi], tmpK[lo:hi], tmpV[lo:hi])
			}
			lo = hi
		}
		return
	}
	passes := (kb + w + width - 1) / width
	width = (kb + w + passes - 1) / passes // even digits: 30 bits are 3×10
	mask := uint64(1)<<width - 1
	counts := make([]int, passes<<width)
	src, dst := tmpK, tmpV
	for i, k := range keys {
		x := uint64(k-minK)<<w | uint64(vals[i]-minV)
		src[i] = int64(x)
		for p := uint(0); p < passes; p++ {
			counts[p<<width|uint(x>>(p*width&63)&mask)]++
		}
	}
	for p := uint(0); p < passes; p++ {
		c := counts[p<<width : (p+1)<<width]
		if slices.Contains(c, n) {
			continue
		}
		sum := 0
		for d, x := range c {
			c[d], sum = sum, sum+x
		}
		for _, x := range src {
			d := uint64(x) >> (p * width & 63) & mask
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	for i, x := range src {
		keys[i], vals[i] = int64(uint64(x)>>w)+minK, int64(uint64(x)&(1<<w-1))+minV
	}
}
