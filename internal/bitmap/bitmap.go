// Package bitmap provides the dense bitset that carries selection vectors
// through Ringo's vectorized table execution (§2.3 of Perez et al., SIGMOD
// 2015, the select benchmarked in Table 4). A Bitmap holds one bit per table
// row in a flat []uint64; predicate leaves fill it column-at-a-time, boolean
// connectives combine whole words (64 rows per instruction instead of a
// closure call per row), and the two-pass parallel row copy consumes it via
// popcounts and trailing-zero iteration.
//
// The invariant throughout: bits at positions >= Len() in the last word are
// always zero. Every mutating operation maintains it, so Count and the
// complement (Not) need no per-call masking of earlier state.
package bitmap

import (
	"fmt"
	"math/bits"

	"ringo/internal/par"
)

// WordBits is the number of rows covered by one storage word.
const WordBits = 64

// Bitmap is a fixed-length dense bitset. The zero value is an empty bitmap
// of length 0; use New for a sized one. A Bitmap is safe for concurrent
// readers; concurrent writers need external synchronization (the parallel
// fill helpers write disjoint words and are safe).
type Bitmap struct {
	n     int
	words []uint64
}

// New returns an all-zeros bitmap of n bits.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative length")
	}
	return &Bitmap{n: n, words: make([]uint64, (n+WordBits-1)/WordBits)}
}

// Len reports the bitmap's length in bits.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words. Callers writing to them must keep the
// tail-bits-zero invariant; the kernel fill loops in internal/table do.
func (b *Bitmap) Words() []uint64 { return b.words }

// Bytes reports the heap size of the backing array, for cache accounting.
func (b *Bitmap) Bytes() int64 { return int64(cap(b.words)) * 8 }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// tailMask returns the valid-bit mask for the last word, or ^0 when the
// length is word-aligned (or zero words exist).
func (b *Bitmap) tailMask() uint64 {
	if r := b.n & 63; r != 0 {
		return (1 << uint(r)) - 1
	}
	return ^uint64(0)
}

// SetAll sets every bit in [0, Len).
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if len(b.words) > 0 {
		b.words[len(b.words)-1] &= b.tailMask()
	}
}

func (b *Bitmap) sameLen(o *Bitmap) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitmap: length mismatch %d vs %d", b.n, o.n))
	}
}

// And intersects b with o in place. Panics on length mismatch.
func (b *Bitmap) And(o *Bitmap) {
	b.sameLen(o)
	bw, ow := b.words, o.words
	par.For(len(bw), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bw[i] &= ow[i]
		}
	})
}

// Or unions b with o in place. Panics on length mismatch.
func (b *Bitmap) Or(o *Bitmap) {
	b.sameLen(o)
	bw, ow := b.words, o.words
	par.For(len(bw), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bw[i] |= ow[i]
		}
	})
}

// Not complements b in place, masking the tail so bits past Len stay zero.
func (b *Bitmap) Not() {
	bw := b.words
	par.For(len(bw), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bw[i] = ^bw[i]
		}
	})
	if len(bw) > 0 {
		bw[len(bw)-1] &= b.tailMask()
	}
}

// Count reports the number of set bits, popcounting words in parallel.
func (b *Bitmap) Count() int {
	return int(par.SumInt(len(b.words), func(lo, hi int) int64 {
		var c int64
		for _, w := range b.words[lo:hi] {
			c += int64(bits.OnesCount64(w))
		}
		return c
	}))
}

// CountRange reports the number of set bits in [lo, hi). It is the per-range
// counting pass of the two-pass parallel selection decode.
func (b *Bitmap) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	if wLo == wHi {
		m := (^uint64(0) << uint(lo&63)) & maskUpto(hi-1)
		return bits.OnesCount64(b.words[wLo] & m)
	}
	c := bits.OnesCount64(b.words[wLo] & (^uint64(0) << uint(lo&63)))
	for w := wLo + 1; w < wHi; w++ {
		c += bits.OnesCount64(b.words[w])
	}
	c += bits.OnesCount64(b.words[wHi] & maskUpto(hi-1))
	return c
}

// maskUpto returns a mask of bits [0, (i&63)] — every bit up to and
// including position i within its word.
func maskUpto(i int) uint64 {
	r := uint(i & 63)
	if r == 63 {
		return ^uint64(0)
	}
	return (1 << (r + 1)) - 1
}

// AppendSet appends the positions of the set bits in [lo, hi) to dst in
// ascending order, decoding word-at-a-time with trailing-zero extraction.
func (b *Bitmap) AppendSet(dst []int32, lo, hi int) []int32 {
	if lo >= hi {
		return dst
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	for wi := wLo; wi <= wHi; wi++ {
		w := b.words[wi]
		if wi == wLo {
			w &= ^uint64(0) << uint(lo&63)
		}
		if wi == wHi {
			w &= maskUpto(hi - 1)
		}
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ParFill partitions the backing words into contiguous ranges and runs
// fill(loWord, hiWord) on each in parallel. fill must write only words in
// [loWord, hiWord) and maintain the tail-bits-zero invariant for the last
// word; the typed predicate kernels do both by construction.
func (b *Bitmap) ParFill(fill func(loWord, hiWord int)) {
	par.For(len(b.words), fill)
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{n: b.n, words: append([]uint64(nil), b.words...)}
}
