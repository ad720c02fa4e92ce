package xhash

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

func TestChecksumDeterministicAndSensitive(t *testing.T) {
	data := []byte("ringo snapshot payload")
	c1 := Checksum64(data)
	c2 := Checksum64(data)
	if c1 != c2 {
		t.Fatalf("checksum not deterministic: %x vs %x", c1, c2)
	}
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 1
		if Checksum64(mutated) == c1 {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
	}
}

func TestChecksumLengthSensitive(t *testing.T) {
	// Payloads differing only in trailing zero bytes must hash apart.
	a := bytes.Repeat([]byte{0}, 8)
	b := bytes.Repeat([]byte{0}, 16)
	if Checksum64(a) == Checksum64(b) {
		t.Fatal("trailing zeros not distinguished")
	}
	if Checksum64(nil) == Checksum64([]byte{0}) {
		t.Fatal("empty vs single zero byte not distinguished")
	}
}

// detectionPayloads are all-zero, all-0xff and mixed payloads of two
// whole-stripe lengths and one with a tail of three bytes.
func detectionPayloads() map[string][]byte {
	out := make(map[string][]byte)
	rng := rand.New(rand.NewPCG(50, 1))
	for _, n := range []int{64, 256, 259} {
		mixed := make([]byte, n)
		for i := range mixed {
			mixed[i] = byte(rng.Uint32())
		}
		out[fmt.Sprintf("zero-%d", n)] = make([]byte, n)
		out[fmt.Sprintf("ones-%d", n)] = bytes.Repeat([]byte{0xff}, n)
		out[fmt.Sprintf("mixed-%d", n)] = mixed
	}
	return out
}

// TestChecksumDetectsFlips flips, in each detection payload, every single
// bit and every pair of equal bits in two different words — the same lane
// (words 4 apart) and across lanes — and requires every result to hash
// apart from the payload. The single flips must also hash apart from each
// other. Pairs of equal bits are what a plain word-wise FNV-1a misses: two
// flips of bit 63 cancel in its xor-then-multiply.
func TestChecksumDetectsFlips(t *testing.T) {
	for name, p := range detectionPayloads() {
		base := Checksum64(p)
		seen := map[uint64]int{base: -1}
		q := bytes.Clone(p)
		for bit := range 8 * len(p) {
			q[bit/8] ^= 1 << (bit % 8)
			sum := Checksum64(q)
			if prev, dup := seen[sum]; dup {
				t.Fatalf("%s: flipping bit %d hashes as flipping bit %d (-1: none)", name, bit, prev)
			}
			seen[sum] = bit
			q[bit/8] ^= 1 << (bit % 8)
		}
		words := len(p) / 8
		for i := range words {
			for j := i + 1; j < words; j++ {
				for bit := range 64 {
					q[8*i+bit/8] ^= 1 << (bit % 8)
					q[8*j+bit/8] ^= 1 << (bit % 8)
					if Checksum64(q) == base {
						t.Fatalf("%s: flipping bit %d of words %d and %d (lanes %d, %d) is not detected", name, bit, i, j, i%4, j%4)
					}
					q[8*i+bit/8] ^= 1 << (bit % 8)
					q[8*j+bit/8] ^= 1 << (bit % 8)
				}
			}
		}
	}
}

// TestChecksumDetectsTruncation: every prefix of a detection payload
// hashes apart from every other, and so do runs of n and n+1 zero bytes
// for every n up to 300.
func TestChecksumDetectsTruncation(t *testing.T) {
	for name, p := range detectionPayloads() {
		seen := make(map[uint64]int)
		for n := range len(p) + 1 {
			sum := Checksum64(p[:n])
			if prev, dup := seen[sum]; dup {
				t.Fatalf("%s: prefixes of %d and %d bytes hash alike", name, prev, n)
			}
			seen[sum] = n
		}
	}
	zeros := make([]byte, 301)
	for n := range 300 {
		if Checksum64(zeros[:n]) == Checksum64(zeros[:n+1]) {
			t.Fatalf("%d and %d zero bytes hash alike", n, n+1)
		}
	}
}

// TestChecksumStreamingMatchesOneShot: a payload written in two pieces
// split at every offset from 0 to 64, or in pieces of every size from 1 to
// 64, digests as Checksum64 does.
func TestChecksumStreamingMatchesOneShot(t *testing.T) {
	p := detectionPayloads()["mixed-259"]
	want := Checksum64(p)
	for at := 0; at <= 64; at++ {
		d := NewDigest()
		d.Write(p[:at])
		d.Write(p[at:])
		if got := d.Sum64(); got != want {
			t.Fatalf("split at %d: %x, want %x", at, got, want)
		}
		if at == 0 {
			continue
		}
		d = NewDigest()
		for rest := p; len(rest) > 0; rest = rest[min(at, len(rest)):] {
			d.Write(rest[:min(at, len(rest))])
		}
		if got := d.Sum64(); got != want {
			t.Fatalf("pieces of %d: %x, want %x", at, got, want)
		}
	}
}

// FuzzChecksum: a payload written through a Digest in three pieces, cut at
// fuzzed points, digests as Checksum64 does, and Sum64 leaves the Digest
// as it was.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte("ringo snapshot payload"), uint16(3), uint16(17))
	f.Add(make([]byte, 100), uint16(32), uint16(64))
	f.Add(bytes.Repeat([]byte{0xff}, 259), uint16(31), uint16(33))
	f.Fuzz(func(t *testing.T, p []byte, cut1, cut2 uint16) {
		a := min(int(cut1), len(p))
		b := a + min(int(cut2), len(p)-a)
		d := NewDigest()
		d.Write(p[:a])
		mid := d.Sum64()
		d.Write(p[a:b])
		d.Write(p[b:])
		if got, want := d.Sum64(), Checksum64(p); got != want {
			t.Fatalf("cuts at %d and %d: %x, want %x", a, b, got, want)
		}
		if mid != Checksum64(p[:a]) {
			t.Fatalf("mid-stream Sum64 at %d differs from the prefix's checksum", a)
		}
	})
}

// BenchmarkChecksum64 reads a 14 MiB buffer, the size of the warm-read
// workload's snapshot.
func BenchmarkChecksum64(b *testing.B) {
	p := make([]byte, 14<<20)
	for i := range p {
		p[i] = byte(i * 131)
	}
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for range b.N {
		Checksum64(p)
	}
}
