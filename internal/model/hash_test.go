package model

import "testing"

// TestSum64Distinguishes is a smoke test of the fingerprint hash's
// mixing on the inputs most likely to collide in a weak fold: every
// two-byte input, all-zero inputs that differ only in length (the
// overlapping tail reads), and every single-bit flip of a buffer long
// enough to take the 16-byte rounds.
func TestSum64Distinguishes(t *testing.T) {
	seen := make(map[uint64][]byte)
	note := func(p []byte) {
		h := sum64(p)
		if prev, dup := seen[h]; dup {
			t.Fatalf("sum64(%x) == sum64(%x)", p, prev)
		}
		seen[h] = append([]byte(nil), p...)
	}
	for i := 0; i < 1<<16; i++ {
		note([]byte{byte(i), byte(i >> 8)})
	}
	for n := 0; n <= 64; n++ {
		if n != 2 {
			note(make([]byte, n))
		}
	}
	buf := make([]byte, 53)
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	note(buf)
	for bit := 0; bit < 8*len(buf); bit++ {
		buf[bit/8] ^= 1 << (bit % 8)
		note(buf)
		buf[bit/8] ^= 1 << (bit % 8)
	}
}
