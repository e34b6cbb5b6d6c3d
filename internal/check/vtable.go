package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the visited-state store shared by every engine:
// a lock-free open-addressing fingerprint table in the lineage of
// Spin's state store and Cliff Click's non-blocking hash table.
//
// Layout. States live in a flat []atomic.Uint64 slot array. Each slot
// packs a 48-bit fingerprint (the top bits of the state hash, forced
// non-zero) with the 16-bit minimal discovery depth:
//
//	63                    16 15           0
//	+-----------------------+-------------+
//	|      fingerprint      |  min depth  |
//	+-----------------------+-------------+
//
// A zero slot is empty. Depth 0xFFFF is the seal marker used during
// growth (below); live depths are clamped to 0xFFFE. Slots are claimed
// by CAS with linear probing from the fingerprint's home index, and a
// claimed slot only ever transitions monotonically: its depth shrinks
// (min-depth re-expansion) or it seals — never back. There are no
// deletions, which is what makes unsynchronized probing sound.
//
// Exactness backstop. In exact mode (the default) every claimed slot
// publishes, in a parallel refs array, a packed reference into an
// append-only byte arena holding the state's full canonical encoding.
// A fingerprint match is confirmed byte-for-byte against the arena
// before the slot is treated as "this state"; a genuine fingerprint
// collision keeps probing and the colliding state claims its own slot.
// Visited-set answers are therefore exact — two distinct states are
// never merged — while the per-state footprint stays a flat 16 bytes
// of table plus the encoding bytes.
//
// Compact mode (Options.Compact) drops the refs array and the arena
// entirely — Spin's hash compaction: a fingerprint match *is* the
// state, ~8 bytes of table per state, and the run reports the
// omission-probability upper bound in Result.Omission.
//
// Growth. When a table passes 3/4 occupancy any inserter allocates the
// doubled successor and publishes it with a CAS on t.next. Migration
// is cooperative and chunked: threads claim vtMigChunk-slot chunks via
// a fetch-add cursor and migrate each slot by sealing it —
//
//	empty slot:    CAS 0 → sealedEmpty (0x000000000000FFFF)
//	claimed slot:  copy (fp, depth, ref) into the successor, then
//	               CAS value → fp<<16|0xFFFF; on CAS failure (a racing
//	               depth improvement) re-read and re-copy
//
// — so a probe in the old table that reaches a sealed slot knows
// exactly where to continue: sealedEmpty ends the old table's probe
// chain (nothing it is looking for can live past a slot that was empty
// when sealed), and a sealed-full slot keeps its fingerprint so probes
// can tell "my entry moved" from "some other entry moved". Claims only
// succeed on unsealed slots, and the migrator re-reads after every
// failed seal, so no claim or depth improvement is ever lost. When
// every chunk is migrated the successor is published as the current
// table. All operations are wait-free except for bounded CAS retries
// and the ref-publication spin.
const (
	vtDepthBits = 16
	vtDepthMask = (1 << vtDepthBits) - 1
	// vtDepthMax is the deepest representable discovery depth; deeper
	// discoveries clamp (min-depth semantics are unaffected: the clamp
	// only coarsens re-expansion above 65534, far past any MaxDepth in
	// use).
	vtDepthMax = vtDepthMask - 1
	// vtSealedEmpty marks a slot that was empty when its region
	// migrated: the probe chain ends here, continue in t.next.
	vtSealedEmpty = uint64(vtDepthMask)
	// vtMinSlots is the initial table size (8 KB of slots): small
	// enough that screening a few hundred states never touches a big
	// allocation, a handful of doublings away from millions.
	vtMinSlots = 1 << 10
	// vtMigChunk is the number of slots one helper migrates per claim.
	vtMigChunk = 256
	// vtFPBits is the fingerprint width; compact mode merges distinct
	// states only when their top vtFPBits hash bits collide.
	vtFPBits = 64 - vtDepthBits
)

// vtFP extracts the slot fingerprint from a state hash.
func vtFP(h uint64) uint64 {
	fp := h >> vtDepthBits
	if fp == 0 {
		fp = 1 // fp 0 is reserved for empty/sealedEmpty slots
	}
	return fp
}

func vtPack(fp uint64, depth int) uint64 { return fp<<vtDepthBits | uint64(depth) }
func vtSlotFP(v uint64) uint64           { return v >> vtDepthBits }
func vtSlotDepth(v uint64) int           { return int(v & vtDepthMask) }
func vtIsSealed(v uint64) bool           { return v&vtDepthMask == vtDepthMask }

// vtable is one generation of the slot array.
type vtable struct {
	slots []atomic.Uint64
	refs  []atomic.Uint64 // arena references; nil in compact mode
	shift uint            // home(fp) = fp * phi >> shift

	next    atomic.Pointer[vtable]
	migNext atomic.Int64 // next migration chunk to claim
	migDone atomic.Int64 // migration chunks completed
	used    atomic.Int64 // claimed slots in this generation
}

func newVTable(slots int, compact bool) *vtable {
	t := &vtable{
		slots: make([]atomic.Uint64, slots),
		shift: uint(64 - popShift(slots)),
	}
	if !compact {
		t.refs = make([]atomic.Uint64, slots)
	}
	return t
}

// popShift returns log2 of the (power-of-two) slot count.
func popShift(n int) int {
	s := 0
	for 1<<s < n {
		s++
	}
	return s
}

// home is the probe start index, derived from the fingerprint alone
// (Fibonacci hashing) so migration can re-home entries without the low
// hash bits the fingerprint dropped.
func (t *vtable) home(fp uint64) uint64 {
	return (fp * 0x9E3779B97F4A7C15) >> t.shift
}

func (t *vtable) chunks() int64 {
	return int64((len(t.slots) + vtMigChunk - 1) / vtMigChunk)
}

// visitedTable is the engine-facing store: the current table
// generation, the encoding arena, and the state accounting shared with
// MaxStates and the campaign Budget.
type visitedTable struct {
	compact  bool
	paranoid bool
	limit    int64
	budget   *Budget
	states   atomic.Int64
	grows    atomic.Int64
	cur      atomic.Pointer[vtable]
	arena    *encArena // nil in compact mode
}

func newVisitedTable(compact, paranoid bool, limit int64, budget *Budget, slots int) *visitedTable {
	v := &visitedTable{compact: compact, paranoid: paranoid, limit: limit, budget: budget}
	if slots < 4 {
		slots = 4
	}
	if !compact {
		v.arena = newEncArena()
	}
	v.cur.Store(newVTable(slots, compact))
	return v
}

func (v *visitedTable) size() int { return int(v.states.Load()) }

// omission returns the SPIN-style upper bound on the probability that
// compact mode merged at least one pair of distinct states: a union
// bound of k·(k-1)/2 pairwise fingerprint collisions at 2^-48 each.
// Exact mode resolves every collision byte-for-byte, so its bound is 0.
func (v *visitedTable) omission() float64 {
	if !v.compact {
		return 0
	}
	k := float64(v.states.Load())
	p := k * (k - 1) / 2 / float64(uint64(1)<<vtFPBits)
	if p > 1 {
		return 1
	}
	return p
}

// mark records the state with hash h and encoding enc (ignored in
// compact mode) discovered at the given depth. It returns isNew for a
// first discovery, expand for first discovery or strictly shallower
// rediscovery, capped when MaxStates or the shared Budget refused the
// state, and otherwise the state's identity and its minimal depth
// before this mark (see markResult).
func (v *visitedTable) mark(h uint64, enc []byte, depth int) (markResult, error) {
	fp := vtFP(h)
	if depth > vtDepthMax {
		depth = vtDepthMax
	}
	t := v.cur.Load()
	for {
		m, moved, err := v.markIn(t, fp, enc, depth)
		if err != nil || !moved {
			return m, err
		}
		// The entry's probe chain continues in the successor; help the
		// migration along on the way through.
		next := v.ensureNext(t)
		v.helpMigrate(t)
		t = next
	}
}

// markIn runs one table generation's probe for mark. moved=true means
// the answer lives in t's successor (which is guaranteed to exist).
func (v *visitedTable) markIn(t *vtable, fp uint64, enc []byte, depth int) (m markResult, moved bool, err error) {
	mask := uint64(len(t.slots) - 1)
	for probe, i := 0, t.home(fp); probe <= int(mask); probe, i = probe+1, i+1 {
		idx := i & mask
		slot := &t.slots[idx]
	reread:
		val := slot.Load()
		switch {
		case val == 0:
			// First free slot on the chain: this state is new here.
			// Reserve against the cap and the shared budget before
			// claiming (optimistic fetch-and-add with rollback, like
			// Budget.take); a lost claim race returns the tokens and
			// re-examines the slot.
			if cur := v.states.Add(1); v.limit > 0 && cur > v.limit {
				v.states.Add(-1)
				return markResult{capped: true}, false, nil
			}
			if !v.budget.take() {
				v.states.Add(-1)
				return markResult{capped: true}, false, nil
			}
			if !slot.CompareAndSwap(0, vtPack(fp, depth)) {
				v.states.Add(-1)
				v.budget.put()
				goto reread
			}
			id := fp
			if t.refs != nil {
				id = v.arena.store(fp, enc)
				t.refs[idx].Store(id)
			}
			if t.used.Add(1)*4 > int64(len(t.slots))*3 {
				v.ensureNext(t)
				v.helpMigrate(t)
			}
			return markResult{isNew: true, expand: true, depth: depth, id: id}, false, nil

		case val == vtSealedEmpty:
			// The chain's free slot was sealed by migration: nothing
			// past it can match, and new claims go to the successor.
			return markResult{}, true, nil

		case vtSlotFP(val) != fp:
			// Some other entry (live or sealed); keep probing.

		default:
			// Fingerprint match. Exact mode confirms identity against
			// the stored encoding — refs stay readable after sealing —
			// and treats a mismatch as a collision: paranoid errors,
			// otherwise the colliding state keeps probing for its own
			// slot (the exactness backstop).
			id := fp
			if t.refs != nil {
				if id = v.waitRef(t, idx); !v.arena.equal(id, enc) {
					if v.paranoid {
						return markResult{}, false, fmt.Errorf(
							"check: hash collision: fingerprint %#x shared by two distinct states (%d-byte encoding)", fp, len(enc))
					}
					break
				}
			}
			if vtIsSealed(val) {
				// Our entry migrated; its depth lives in the successor.
				return markResult{}, true, nil
			}
			// Live entry for this very state: min-depth merge.
			for {
				prior := vtSlotDepth(val)
				if depth >= prior {
					return markResult{depth: prior, id: id}, false, nil
				}
				if slot.CompareAndSwap(val, vtPack(fp, depth)) {
					return markResult{expand: true, depth: prior, id: id}, false, nil
				}
				val = slot.Load()
				if vtIsSealed(val) {
					// Sealed mid-merge: apply the improvement in the
					// successor instead.
					return markResult{}, true, nil
				}
			}
		}
	}
	// Full sweep with no free slot and no match: the generation is
	// saturated; continue in the successor.
	v.ensureNext(t)
	return markResult{}, true, nil
}

// ensureNext returns t's successor, allocating and publishing the
// doubled table if nobody has yet.
func (v *visitedTable) ensureNext(t *vtable) *vtable {
	if n := t.next.Load(); n != nil {
		return n
	}
	n := newVTable(len(t.slots)*2, v.compact)
	if t.next.CompareAndSwap(nil, n) {
		v.grows.Add(1)
		return n
	}
	return t.next.Load()
}

// helpMigrate claims and migrates up to a few chunks of t, then
// publishes the successor as current if migration is complete. Called
// by every thread that passes through a growing table, so migration
// load spreads across the workers that are touching the store anyway.
func (v *visitedTable) helpMigrate(t *vtable) {
	next := t.next.Load()
	if next == nil {
		return
	}
	nChunks := t.chunks()
	for k := 0; k < 4; k++ {
		c := t.migNext.Add(1) - 1
		if c >= nChunks {
			break
		}
		lo := int(c) * vtMigChunk
		hi := lo + vtMigChunk
		if hi > len(t.slots) {
			hi = len(t.slots)
		}
		for i := lo; i < hi; i++ {
			v.migrateSlot(t, next, i)
		}
		t.migDone.Add(1)
	}
	if t.migDone.Load() == nChunks {
		v.cur.CompareAndSwap(t, next)
	}
}

// drainMigration finishes any in-flight growth single-threadedly (used
// post-run by stats, when no concurrent marking is in flight).
func (v *visitedTable) drainMigration() {
	for {
		t := v.cur.Load()
		if t.next.Load() == nil {
			return
		}
		for t.migDone.Load() < t.chunks() {
			v.helpMigrate(t)
		}
		v.helpMigrate(t) // publish the successor
	}
}

// migrateSlot seals one slot of t, copying a claimed entry into next
// first. The seal CAS fails if a racing thread improved the entry's
// depth after our copy; re-reading and re-copying makes the improvement
// land in next before the seal sticks.
func (v *visitedTable) migrateSlot(t, next *vtable, i int) {
	slot := &t.slots[i]
	for {
		val := slot.Load()
		if vtIsSealed(val) {
			return
		}
		if val == 0 {
			if slot.CompareAndSwap(0, vtSealedEmpty) {
				return
			}
			continue
		}
		fp := vtSlotFP(val)
		var ref uint64
		if t.refs != nil {
			ref = v.waitRef(t, uint64(i))
		}
		v.mergeIn(next, fp, ref, vtSlotDepth(val))
		if slot.CompareAndSwap(val, fp<<vtDepthBits|uint64(vtDepthMask)) {
			return
		}
	}
}

// mergeIn inserts a migrating entry into table t or its successors. It
// never touches the state count or budget — the entry was accounted
// when first claimed — and never reports expansion: a migrated depth is
// a transport, not a discovery (any racing improvement reports its own
// expand from whichever generation it lands in).
func (v *visitedTable) mergeIn(t *vtable, fp, ref uint64, depth int) {
	for {
		if !v.mergeInOne(t, fp, ref, depth) {
			return
		}
		t = v.ensureNext(t)
	}
}

// mergeInOne attempts the merge in one generation, reporting moved.
func (v *visitedTable) mergeInOne(t *vtable, fp, ref uint64, depth int) (moved bool) {
	mask := uint64(len(t.slots) - 1)
	for probe, i := 0, t.home(fp); probe <= int(mask); probe, i = probe+1, i+1 {
		idx := i & mask
		slot := &t.slots[idx]
	reread:
		val := slot.Load()
		switch {
		case val == 0:
			if !slot.CompareAndSwap(0, vtPack(fp, depth)) {
				goto reread
			}
			if t.refs != nil {
				t.refs[idx].Store(ref)
			}
			if t.used.Add(1)*4 > int64(len(t.slots))*3 {
				v.ensureNext(t)
			}
			return false
		case val == vtSealedEmpty:
			return true
		case vtSlotFP(val) != fp:
			// keep probing
		default:
			if t.refs != nil && !v.arena.equalRefs(v.waitRef(t, idx), ref) {
				break // fingerprint collision with a different state
			}
			if vtIsSealed(val) {
				return true
			}
			for {
				if depth >= vtSlotDepth(val) {
					return false
				}
				if slot.CompareAndSwap(val, vtPack(fp, depth)) {
					return false
				}
				val = slot.Load()
				if vtIsSealed(val) {
					return true
				}
			}
		}
	}
	return true
}

// waitRef loads the arena reference for a claimed slot, spinning out
// the tiny claim→publish window.
func (v *visitedTable) waitRef(t *vtable, idx uint64) uint64 {
	for spins := 0; ; spins++ {
		if r := t.refs[idx].Load(); r != 0 {
			return r
		}
		if spins > 16 {
			runtime.Gosched()
		}
	}
}

// VisitedStats describes the visited table after a run: sizing, probe
// quality and arena footprint. Slot layout details are diagnostic —
// probe displacements in a parallel run depend on claim interleaving,
// so these numbers are not part of the determinism contract.
type VisitedStats struct {
	// Slots and Live are the final table capacity and claimed slots.
	Slots, Live int
	// Grows counts table doublings over the run.
	Grows int
	// MaxProbe is the worst final probe displacement (0 = every entry
	// sits at its home slot).
	MaxProbe int
	// ProbeHist buckets entries by probe displacement 0..7, with an
	// 8-and-over tail bucket.
	ProbeHist [9]int
	// ArenaBytes is the total encoding bytes retained by the exactness
	// arena (0 in compact mode).
	ArenaBytes int64
	// Compact reports hash-compaction mode (no arena, fingerprints
	// only).
	Compact bool
}

func (s *VisitedStats) String() string {
	if s == nil {
		return "visited: (no stats)"
	}
	mode := "exact"
	if s.Compact {
		mode = "compact"
	}
	occ := 0.0
	if s.Slots > 0 {
		occ = float64(s.Live) / float64(s.Slots)
	}
	out := fmt.Sprintf("visited[%s]: %d/%d slots (%.1f%% occupancy), %d grows, arena %d B, max probe %d\n",
		mode, s.Live, s.Slots, occ*100, s.Grows, s.ArenaBytes, s.MaxProbe)
	out += "probe histogram:"
	for i, n := range s.ProbeHist {
		label := fmt.Sprintf("%d", i)
		if i == len(s.ProbeHist)-1 {
			label = fmt.Sprintf("%d+", i)
		}
		out += fmt.Sprintf(" %s:%d", label, n)
	}
	return out
}

// merge folds another table's stats in (POR cluster runs each carry
// their own table).
func (s *VisitedStats) merge(o *VisitedStats) {
	if o == nil {
		return
	}
	s.Slots += o.Slots
	s.Live += o.Live
	s.Grows += o.Grows
	if o.MaxProbe > s.MaxProbe {
		s.MaxProbe = o.MaxProbe
	}
	for i := range s.ProbeHist {
		s.ProbeHist[i] += o.ProbeHist[i]
	}
	s.ArenaBytes += o.ArenaBytes
	s.Compact = s.Compact || o.Compact
}

// stats finishes any in-flight growth and scans the final table,
// returning its diagnostics and the deepest minimal depth of any entry
// (0 for an empty table). Call only after the run's marking has
// quiesced.
func (v *visitedTable) stats() (*VisitedStats, int) {
	v.drainMigration()
	t := v.cur.Load()
	s := &VisitedStats{
		Slots:   len(t.slots),
		Grows:   int(v.grows.Load()),
		Compact: v.compact,
	}
	if v.arena != nil {
		s.ArenaBytes = v.arena.bytes.Load()
	}
	mask := uint64(len(t.slots) - 1)
	deepest := 0
	for i := range t.slots {
		val := t.slots[i].Load()
		if val == 0 || val == vtSealedEmpty {
			continue
		}
		s.Live++
		if d := vtSlotDepth(val); d > deepest {
			deepest = d
		}
		d := int((uint64(i) - t.home(vtSlotFP(val))) & mask)
		if d > s.MaxProbe {
			s.MaxProbe = d
		}
		if d >= len(s.ProbeHist) {
			d = len(s.ProbeHist) - 1
		}
		s.ProbeHist[d]++
	}
	return s, deepest
}

// encArena stores full state encodings for the exactness backstop:
// per-shard append-only chunks, written once under the shard mutex and
// read lock-free through copy-on-write chunk tables. References pack
// (shard, chunk, offset, length) into a non-zero uint64 published via
// the table's refs array.
const (
	arenaShardCount = 16
	arenaChunkMin   = 1 << 10
	arenaChunkMax   = 512 << 10
	arenaMaxEnc     = 1<<20 - 1
)

type encArena struct {
	bytes  atomic.Int64
	shards [arenaShardCount]arenaShard
}

type arenaShard struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[][]byte]
	off    int // write offset into the newest chunk
}

func newEncArena() *encArena { return &encArena{} }

// ref layout: bit 63 marker | shard 6 | chunk 16 | offset 21 | length 20.
func arenaPack(shard, chunk, off, n int) uint64 {
	return 1<<63 | uint64(shard)<<57 | uint64(chunk)<<41 | uint64(off)<<20 | uint64(n)
}

func arenaUnpack(ref uint64) (shard, chunk, off, n int) {
	return int(ref >> 57 & 0x3F), int(ref >> 41 & 0xFFFF), int(ref >> 20 & 0x1FFFFF), int(ref & 0xFFFFF)
}

// store copies enc into the fingerprint's shard and returns its
// reference. Chunk sizes double from 4 KB to 512 KB so small runs pay
// small allocations; an oversized encoding gets a dedicated chunk.
func (a *encArena) store(fp uint64, enc []byte) uint64 {
	if len(enc) > arenaMaxEnc {
		panic(fmt.Sprintf("check: state encoding of %d bytes exceeds the visited arena limit", len(enc)))
	}
	shard := int(fp & (arenaShardCount - 1))
	s := &a.shards[shard]
	s.mu.Lock()
	chunks := s.chunks.Load()
	var cs [][]byte
	if chunks != nil {
		cs = *chunks
	}
	if len(cs) == 0 || s.off+len(enc) > len(cs[len(cs)-1]) {
		size := arenaChunkMax
		if len(cs) < 7 {
			size = arenaChunkMin << len(cs)
		}
		if size < len(enc) {
			size = len(enc)
		}
		grown := make([][]byte, len(cs)+1)
		copy(grown, cs)
		grown[len(cs)] = make([]byte, size)
		cs = grown
		s.off = 0
		s.chunks.Store(&cs)
	}
	chunk := len(cs) - 1
	off := s.off
	copy(cs[chunk][off:], enc)
	s.off = off + len(enc)
	s.mu.Unlock()
	a.bytes.Add(int64(len(enc)))
	return arenaPack(shard, chunk, off, len(enc))
}

// load returns the stored bytes for a published reference. The ref was
// published with an atomic store after the copy completed, so the view
// is immutable.
func (a *encArena) load(ref uint64) []byte {
	shard, chunk, off, n := arenaUnpack(ref)
	cs := *a.shards[shard].chunks.Load()
	return cs[chunk][off : off+n]
}

// equal reports whether the stored bytes match enc, allocation-free.
func (a *encArena) equal(ref uint64, enc []byte) bool {
	return string(a.load(ref)) == string(enc)
}

// equalRefs compares two stored encodings.
func (a *encArena) equalRefs(r1, r2 uint64) bool {
	if r1 == r2 {
		return true
	}
	return string(a.load(r1)) == string(a.load(r2))
}
