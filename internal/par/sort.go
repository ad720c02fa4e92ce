package par

import (
	"math/bits"
	"slices"
	"sync"
)

// parallelSortMin is the slice length below which SortInt64s sorts in one
// range; splitting tiny inputs costs more than it saves.
const parallelSortMin = 1 << 14

// SortInt64s sorts a in ascending order, in parallel for large inputs:
// each worker's range is radix sorted, then the ranges are merged
// pairwise, which requires no thread-safe data structures and exhibits no
// contention between workers. It orders the node ids of a CSR view build
// (§2.4's sort-first conversion).
func SortInt64s(a []int64) {
	n := len(a)
	tmp := make([]int64, n)
	if n < parallelSortMin || Workers() == 1 {
		radixSort(a, tmp)
		return
	}
	For(n, func(lo, hi int) { radixSort(a[lo:hi], tmp[lo:hi]) })
	src, dst := a, tmp
	runs := Split(n, Workers())
	for len(runs) > 1 {
		merged := make([]Range, 0, (len(runs)+1)/2)
		var wg sync.WaitGroup
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				r := runs[i]
				wg.Add(1)
				go func() {
					defer wg.Done()
					copy(dst[r.Lo:r.Hi], src[r.Lo:r.Hi])
				}()
				merged = append(merged, r)
				continue
			}
			l, r := runs[i], runs[i+1]
			wg.Add(1)
			go func() {
				defer wg.Done()
				merge(dst[l.Lo:r.Hi], src[l.Lo:l.Hi], src[r.Lo:r.Hi])
			}()
			merged = append(merged, Range{l.Lo, r.Hi})
		}
		wg.Wait()
		src, dst = dst, src
		runs = merged
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// merge writes the sorted union of the sorted runs x and y into dst.
func merge(dst, x, y []int64) {
	k := 0
	for len(x) > 0 && len(y) > 0 {
		if x[0] <= y[0] {
			dst[k], x = x[0], x[1:]
		} else {
			dst[k], y = y[0], y[1:]
		}
		k++
	}
	k += copy(dst[k:], x)
	copy(dst[k:], y)
}

// digitBits caps the radix sort's digit width (2 048 cache-resident
// counters); smaller inputs take narrower digits, at most 2n counters each.
const digitBits = 11

// radixSort sorts a, using tmp as scratch: an LSD radix sort of each
// value's offset from the minimum over only the digits the span fills
// (25K dense node ids take two passes), with every digit's histogram
// counted in one pass and a digit equal for every element skipped.
func radixSort(a, tmp []int64) {
	n := len(a)
	if n < 2 {
		return
	}
	lo, hi := a[0], a[0]
	for _, x := range a {
		lo, hi = min(lo, x), max(hi, x)
	}
	kb := uint(bits.Len64(uint64(hi - lo)))
	if kb == 0 {
		return
	}
	width := min(digitBits, uint(bits.Len(uint(n))))
	passes := (kb + width - 1) / width
	width = (kb + passes - 1) / passes // even digits: 30 bits are 3×10
	mask := uint64(1)<<width - 1
	counts := make([]int, passes<<width)
	src, dst := tmp, a
	for i, x := range a {
		u := uint64(x - lo)
		src[i] = int64(u)
		for p := uint(0); p < passes; p++ {
			counts[p<<width|uint(u>>(p*width&63)&mask)]++
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
		a[i] = x + lo
	}
}
