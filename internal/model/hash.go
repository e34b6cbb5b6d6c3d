package model

import (
	"encoding/binary"
	"math/bits"
	"strings"
	"sync"
)

// Fixed mixing constants of sum64 (the wyhash secrets). They are part
// of the fingerprint definition: changing one changes every hash.
const (
	hashK0 = 0xa0761d6478bd642f
	hashK1 = 0xe7037ed1a0b428db
	hashK2 = 0x8ebc6af09c88c6e3
)

// sum64 is the fingerprint hash of the state encodings: a wyhash-style
// fold that mixes 16 bytes per round through one 64×64→128-bit
// multiply. Its constants are fixed, so a fingerprint is a pure
// function of the encoding in every process — the -stats probe
// histograms, the visited table's maximum probe and the -compact
// omissions repeat from run to run. (hash/maphash would seed itself
// randomly per process.)
func sum64(p []byte) uint64 {
	n := len(p)
	h := uint64(hashK2)
	var a, b uint64
	switch {
	case n > 16:
		for q := p; len(q) > 16; q = q[16:] {
			h = mix(binary.LittleEndian.Uint64(q)^hashK1, binary.LittleEndian.Uint64(q[8:])^h)
		}
		// The last 16 bytes, overlapping the final round when n is not
		// a multiple of 16 (the length folded in below disambiguates).
		a, b = binary.LittleEndian.Uint64(p[n-16:]), binary.LittleEndian.Uint64(p[n-8:])
	case n >= 4:
		d := (n >> 3) << 2
		a = uint64(binary.LittleEndian.Uint32(p))<<32 | uint64(binary.LittleEndian.Uint32(p[d:]))
		b = uint64(binary.LittleEndian.Uint32(p[n-4:]))<<32 | uint64(binary.LittleEndian.Uint32(p[n-4-d:]))
	case n > 0:
		a = uint64(p[0])<<16 | uint64(p[n>>1])<<8 | uint64(p[n-1])
	}
	hi, lo := bits.Mul64(a^hashK1, b^h)
	return mix(lo^hashK0^uint64(n), hi^hashK1)
}

// mix folds the 128-bit product of a and b into 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// nameRegistry backs the name-free globals encoding. A globals section
// identifies its sorted name set by a 64-bit digest instead of the
// names; the registry maps each digest to the one name set that owns
// it, so two different sets never encode alike. A set whose digest is
// already owned by another set is written out verbatim instead.
//
// Ownership is first come, first served. It can only differ between
// runs when two name sets of one process collide in 64 bits, and then
// only in the bytes, never in which states are equal.
type nameRegistry struct {
	sum  func([]byte) uint64
	mu   sync.Mutex
	sets map[uint64]string
	// lays maps each plain globals header to a layout that wrote it:
	// the inverse World.DecodeInto needs.
	lays map[string]*glayout
}

// digests is the process-wide registry; layouts consult it once each,
// when their first encoding is built.
var digests = &nameRegistry{sum: sum64}

// Tags of a non-empty name-set header.
const (
	tagDigest = 0 // 8-byte registered digest follows
	tagNames  = 1 // the names follow, each NUL-terminated
)

// header returns the encoded header of a sorted name set, each name
// stripped of its first strip bytes: a u16 count, then — for a
// non-empty set — tagDigest and the set's digest, or tagNames and the
// names when another set owns that digest.
func (r *nameRegistry) header(names []string, strip int) []byte {
	hdr := binary.LittleEndian.AppendUint16(nil, uint16(len(names)))
	if len(names) == 0 {
		return hdr
	}
	var key strings.Builder
	for _, name := range names {
		key.WriteString(name[strip:])
		key.WriteByte(0)
	}
	set := key.String()
	d := r.sum([]byte(set))
	r.mu.Lock()
	owner, taken := r.sets[d]
	if !taken {
		if r.sets == nil {
			r.sets = make(map[uint64]string)
		}
		r.sets[d] = set
	}
	r.mu.Unlock()
	if taken && owner != set {
		return append(append(hdr, tagNames), set...)
	}
	return binary.LittleEndian.AppendUint64(append(hdr, tagDigest), d)
}

// addLayout records lay as a layout whose plain header is hdr, unless
// one is recorded already.
func (r *nameRegistry) addLayout(hdr []byte, lay *glayout) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lays == nil {
		r.lays = make(map[string]*glayout)
	}
	if _, ok := r.lays[string(hdr)]; !ok {
		r.lays[string(hdr)] = lay
	}
}

// layout returns a layout whose plain header is hdr.
func (r *nameRegistry) layout(hdr []byte) (*glayout, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lay, ok := r.lays[string(hdr)]
	return lay, ok
}

// appendInt32s appends vs as 4-byte little-endian words.
func appendInt32s(buf []byte, vs []int32) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}
