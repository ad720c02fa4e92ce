// Package xhash is the integrity checksum of the workspace snapshot (RNGS)
// and mapped graph image (RNGM) formats. It reads its input as 8-byte
// little-endian words spread over four independent lanes, each advanced by
// XXH64's round, acc = rotl(acc + w·P2, 31)·P1, so the four multiplies of
// a 32-byte stripe overlap and a payload is checked at memory speed rather
// than a multiply per byte. At the end the lanes are merged, the tail
// bytes (under 32) and the byte count are folded in, and a splitmix64
// avalanche finishes the state, so a single-bit change anywhere flips
// roughly half the checksum bits and payloads that differ only by a run of
// trailing zero bytes hash apart. This is an integrity check against
// truncation and bit rot, not a cryptographic MAC.
//
// Every RNGS (version 3 on) and RNGM (version 2 on) checksum depends on
// each step here bit for bit, so changing any of them is a format change:
// it bumps both formats' versions. docs/FORMATS.md defines the function.
package xhash

import (
	"encoding/binary"
	"math/bits"
)

// XXH64's primes.
const (
	prime1 uint64 = 0x9e3779b185ebca87
	prime2 uint64 = 0xc2b2ae3d27d4eb4f
	prime4 uint64 = 0x85ebca77c2b2ae63
	prime5 uint64 = 0x27d4eb2f165667c5
)

// stripe is the bytes one pass of the four lanes absorbs.
const stripe = 32

// Digest is a streaming 64-bit checksum: writing a payload in any number
// of pieces gives the Checksum64 of the whole. The zero value is NOT ready
// to use; construct with NewDigest. Digest implements io.Writer so
// encoders can tee payload bytes through it.
type Digest struct {
	acc  [4]uint64
	tail [stripe]byte // bytes written past the last whole stripe
	nt   int          // how many of tail hold them
	n    uint64       // bytes written
}

// NewDigest returns a fresh checksum accumulator.
func NewDigest() *Digest {
	d := newDigest()
	return &d
}

// newDigest is XXH64's lane seeding with seed 0.
func newDigest() Digest {
	p1 := prime1
	return Digest{acc: [4]uint64{p1 + prime2, prime2, 0, -p1}}
}

// Write absorbs p into the checksum. It never fails.
func (d *Digest) Write(p []byte) (int, error) {
	n := len(p)
	d.n += uint64(n)
	if d.nt > 0 {
		k := copy(d.tail[d.nt:], p)
		d.nt += k
		p = p[k:]
		if d.nt < stripe {
			return n, nil
		}
		absorb(&d.acc, d.tail[:])
		d.nt = 0
	}
	whole := len(p) &^ (stripe - 1)
	absorb(&d.acc, p[:whole])
	d.nt = copy(d.tail[:], p[whole:])
	return n, nil
}

// absorb advances the four lanes over p, a whole number of stripes.
func absorb(acc *[4]uint64, p []byte) {
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for len(p) >= stripe {
		s := p[:stripe]
		a0 = round(a0, binary.LittleEndian.Uint64(s[0:8]))
		a1 = round(a1, binary.LittleEndian.Uint64(s[8:16]))
		a2 = round(a2, binary.LittleEndian.Uint64(s[16:24]))
		a3 = round(a3, binary.LittleEndian.Uint64(s[24:32]))
		p = p[stripe:]
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
}

func round(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

// fold mixes one more word into a merged state, as XXH64 folds its tail
// words.
func fold(h, w uint64) uint64 {
	return bits.RotateLeft64(h^round(0, w), 27)*prime1 + prime4
}

// Sum64 returns the checksum of the bytes written so far; it does not
// change the Digest.
func (d *Digest) Sum64() uint64 {
	a := d.acc
	h := bits.RotateLeft64(a[0], 1) + bits.RotateLeft64(a[1], 7) +
		bits.RotateLeft64(a[2], 12) + bits.RotateLeft64(a[3], 18)
	for _, v := range a {
		h = (h^round(0, v))*prime1 + prime4
	}
	t := d.tail[:d.nt]
	for ; len(t) >= 8; t = t[8:] {
		h = fold(h, binary.LittleEndian.Uint64(t))
	}
	for _, b := range t {
		h ^= uint64(b) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	return mix(fold(h, d.n))
}

// Checksum64 returns the checksum of data in one call.
func Checksum64(data []byte) uint64 {
	d := newDigest()
	_, _ = d.Write(data)
	return d.Sum64()
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
