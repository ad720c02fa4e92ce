// Package xhash is the integrity checksum of the workspace snapshot (RNGS)
// and mapped graph image (RNGM) formats: a streaming 64-bit
// FNV-1a hash finished with a splitmix64 avalanche. FNV-1a alone propagates
// trailing-zero blocks weakly; the finalizer scrambles the state so that
// single-bit corruption anywhere in an object payload flips roughly half the
// checksum bits. This is an integrity check against truncation and bit rot,
// not a cryptographic MAC.
package xhash

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Digest is a streaming 64-bit checksum. The zero value is NOT ready to
// use; construct with NewDigest. Digest implements io.Writer so encoders
// can tee payload bytes through it.
type Digest struct {
	h uint64
	n uint64
}

// NewDigest returns a fresh checksum accumulator.
func NewDigest() *Digest {
	return &Digest{h: fnvOffset}
}

// Write absorbs p into the checksum. It never fails.
func (d *Digest) Write(p []byte) (int, error) {
	h := d.h
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	d.h = h
	d.n += uint64(len(p))
	return len(p), nil
}

// Sum64 returns the checksum of the bytes written so far. The byte count is
// folded in before finalizing, so payloads that differ only by a run of
// trailing zero bytes hash differently.
func (d *Digest) Sum64() uint64 {
	return uint64(mix(int64(d.h ^ d.n)))
}

// Checksum64 returns the checksum of data in one call.
func Checksum64(data []byte) uint64 {
	d := NewDigest()
	_, _ = d.Write(data)
	return d.Sum64()
}

// mix is the splitmix64 finalizer. Every RNGS and RNGM checksum already
// written to disk depends on it bit for bit, so it must never change.
func mix(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
