package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Symmetry declares the replica structure of a world: groups of
// interchangeable process bundles ("replicas" — e.g. the GMM+SM stack
// of one UE together with its SGSN peers) whose wholesale exchange maps
// reachable states onto reachable states. The checker uses it
// (check.Options.Symmetry) to explore the quotient under replica
// permutations: the canonical encoding sorts the per-replica
// sub-encodings lexicographically before hashing, so all n!
// permutations of a multi-UE state collapse into one visited-set entry.
//
// A declaration is sound when the replicas really are symmetric: same
// specs in the same role order, instance-local wiring (replica processes
// send only within their replica or to shared non-replica processes),
// per-replica globals confined to the replica's "g.<NS>." namespace,
// and a scenario offering the same events to every replica. The
// permutation-invariance suite (symmetry_test.go) checks the encoding
// half of this contract; core's world builders own the modeling half.
type Symmetry struct {
	Groups []SymGroup
}

// SymGroup is one orbit of interchangeable replicas.
type SymGroup struct {
	Replicas []SymReplica
}

// SymReplica names the state owned by one replica.
type SymReplica struct {
	// Procs lists the replica's process names. Position is the role:
	// Procs[j] of every replica in a group must play the same part
	// (e.g. j=0 is always the device-side GMM).
	Procs []string
	// NS is the replica's globals namespace: every global named
	// "g.<NS>.<suffix>" belongs to this replica (the fsm.NamespaceGlobals
	// convention). The sorted globals layout keeps the namespace a
	// contiguous span, so the encoder finds it by binary search.
	NS string
	// Atoms are the name fragments identifying this replica inside
	// property descriptions and step notes (e.g. ["sgsn1", "ue1"]).
	// Position is the role, like Procs. The checker rewrites violations
	// along permutations by exchanging corresponding atoms.
	Atoms []string
}

// symResolution is the per-world resolved form of a Symmetry: process
// indices instead of names. It is immutable after SetSymmetry and
// shared by clones (CloneInto preserves process order).
type symResolution struct {
	groups [][]symReplicaRes
	// rest lists the processes belonging to no replica, in world order.
	rest []int
	// spansKey lists the replica namespace prefixes group by group,
	// each length-prefixed: everything a canonical view of the globals
	// depends on, so resolutions with equal keys (a world's POR
	// projections, repeated runs) share one view per layout.
	spansKey string
}

type symReplicaRes struct {
	procs  []int
	prefix string // "g." + NS + "."
}

// symScratch is per-world reusable working storage for EncodeCanonical
// (never shared between worlds; CloneInto skips it, like scratch).
type symScratch struct {
	subs  [][]byte
	order []int
}

// gspan is a half-open range of globals-layout indices.
type gspan struct{ lo, hi int }

// canonLayout is the symmetry-canonical view of one globals layout
// under one replica namespace structure (symResolution.spansKey): each
// replica's namespaced span with the header of its suffix set, and the
// complement's ranges with their header. It is immutable once built.
// Layouts keep a lock-free list of views, one per structure that
// encoded against them (POR clusters sharing a layout keep different
// replicas).
type canonLayout struct {
	key  string
	next *canonLayout
	// spans[g][r] is replica r of group g.
	spans [][]canonSpan
	rest  []gspan
	// restHdr is the header of the complement's names.
	restHdr []byte
}

// canonSpan is one replica's globals: the layout range carrying its
// "g.<NS>." prefix and the header of the range's suffix set, which is
// equal for corresponding replicas.
type canonSpan struct {
	gspan
	hdr []byte
}

// canonView returns the memoized canonical view of the world's globals
// layout under its symmetry resolution, building it on first use.
func (w *World) canonView() *canonLayout {
	lay := w.layout()
	head := lay.canon.Load()
	for v := head; v != nil; v = v.next {
		if v.key == w.symRes.spansKey {
			return v
		}
	}
	v := buildCanonLayout(lay, w.symRes)
	for {
		v.next = head
		if lay.canon.CompareAndSwap(head, v) {
			return v
		}
		head = lay.canon.Load()
	}
}

// buildCanonLayout resolves every replica's namespace to its span of
// the sorted layout (a binary search plus a scan of the span) and the
// complement to its ranges.
func buildCanonLayout(lay *glayout, res *symResolution) *canonLayout {
	v := &canonLayout{key: res.spansKey, spans: make([][]canonSpan, len(res.groups))}
	inSpan := make([]bool, len(lay.names))
	for gi, grp := range res.groups {
		for _, rep := range grp {
			lo := sort.SearchStrings(lay.names, rep.prefix)
			hi := lo
			for hi < len(lay.names) && strings.HasPrefix(lay.names[hi], rep.prefix) {
				inSpan[hi] = true
				hi++
			}
			v.spans[gi] = append(v.spans[gi], canonSpan{
				gspan: gspan{lo, hi},
				hdr:   digests.header(lay.names[lo:hi], len(rep.prefix)),
			})
		}
	}
	var restNames []string
	for i, name := range lay.names {
		if inSpan[i] {
			continue
		}
		restNames = append(restNames, name)
		if n := len(v.rest); n > 0 && v.rest[n-1].hi == i {
			v.rest[n-1].hi++
		} else {
			v.rest = append(v.rest, gspan{i, i + 1})
		}
	}
	v.restHdr = digests.header(restNames, 0)
	return v
}

// SetSymmetry attaches a replica-symmetry descriptor to the world and
// resolves it against the current process table. Clones share the
// resolved descriptor. Passing nil detaches it (EncodeCanonical then
// degenerates to Encode).
func (w *World) SetSymmetry(sym *Symmetry) error {
	if sym == nil {
		w.sym, w.symRes = nil, nil
		return nil
	}
	if len(w.Procs) != len(w.Chans) {
		return fmt.Errorf("model: symmetry: world has %d procs but %d channels", len(w.Procs), len(w.Chans))
	}
	res := &symResolution{}
	inReplica := make(map[int]bool)
	seenNS := make(map[string]bool)
	for gi, g := range sym.Groups {
		if len(g.Replicas) == 0 {
			return fmt.Errorf("model: symmetry: group %d has no replicas", gi)
		}
		role := len(g.Replicas[0].Procs)
		grp := make([]symReplicaRes, 0, len(g.Replicas))
		for ri, r := range g.Replicas {
			if len(r.Procs) != role {
				return fmt.Errorf("model: symmetry: group %d replica %d has %d procs, want %d",
					gi, ri, len(r.Procs), role)
			}
			if r.NS == "" {
				return fmt.Errorf("model: symmetry: group %d replica %d has no namespace", gi, ri)
			}
			if seenNS[r.NS] {
				return fmt.Errorf("model: symmetry: namespace %q used by two replicas", r.NS)
			}
			seenNS[r.NS] = true
			rr := symReplicaRes{prefix: "g." + r.NS + ".", procs: make([]int, 0, role)}
			for _, name := range r.Procs {
				idx := -1
				for i, p := range w.Procs {
					if p.Name == name {
						idx = i
						break
					}
				}
				if idx < 0 {
					return fmt.Errorf("model: symmetry: unknown process %q", name)
				}
				if inReplica[idx] {
					return fmt.Errorf("model: symmetry: process %q claimed by two replicas", name)
				}
				inReplica[idx] = true
				rr.procs = append(rr.procs, idx)
			}
			grp = append(grp, rr)
		}
		res.groups = append(res.groups, grp)
		for _, rr := range grp {
			res.spansKey += strconv.Itoa(len(rr.prefix)) + ":" + rr.prefix
		}
		res.spansKey += "|"
	}
	for i := range w.Procs {
		if !inReplica[i] {
			res.rest = append(res.rest, i)
		}
	}
	w.sym, w.symRes = sym, res
	return nil
}

// Symmetry returns the attached replica-symmetry descriptor, or nil.
func (w *World) Symmetry() *Symmetry { return w.sym }

// filterSymmetry builds the descriptor for a projection keeping only
// the given processes: replicas survive when every one of their
// processes is kept, groups survive when any replica does (a
// single-replica group canonicalizes trivially but keeps the encoding
// layout consistent across sibling projections). Returns nil when
// nothing survives.
func (w *World) filterSymmetry(keep map[string]bool) *Symmetry {
	if w.sym == nil {
		return nil
	}
	var out Symmetry
	for _, g := range w.sym.Groups {
		var ng SymGroup
		for _, r := range g.Replicas {
			all := true
			for _, p := range r.Procs {
				if !keep[p] {
					all = false
					break
				}
			}
			if all {
				ng.Replicas = append(ng.Replicas, r)
			}
		}
		if len(ng.Replicas) > 0 {
			out.Groups = append(out.Groups, ng)
		}
	}
	if len(out.Groups) == 0 {
		return nil
	}
	return &out
}

// encodeQueueLocal appends the queue encoding of one channel with
// replica-relative sender names: a message sent from inside the replica
// encodes as its sender's role index (tag 1), so the bytes are
// identical across corresponding replicas; any other sender (shared
// infrastructure, the environment) encodes by name (tag 0). The other
// message fields match Encode's fixed-width record.
func (w *World) encodeQueueLocal(buf []byte, c *Channel, local []int) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Queue)))
	for i := range c.Queue {
		m := &c.Queue[i]
		buf = appendMsg(buf, m)
		role := -1
		for j, pi := range local {
			if w.Procs[pi].Name == m.From {
				role = j
				break
			}
		}
		if role >= 0 {
			buf = append(buf, 1, byte(role))
		} else {
			buf = append(buf, 0)
			buf = append(buf, m.From...)
			buf = append(buf, 0)
		}
	}
	return buf
}

// EncodeCanonical appends the symmetry-canonical encoding of the world:
// for each group, the replica sub-encodings (machines in role order,
// queues with replica-relative senders, the replica's namespaced
// globals span as its suffix-set header plus values, its armed timers)
// are length-prefixed and sorted lexicographically, so every
// permutation of a group's replicas encodes identically; the
// non-replica machines, queues, globals and timers follow positionally
// as in Encode. Without a symmetry descriptor it IS Encode.
//
// The hot-path contract matches Encode: memoized machine encodings and
// globals spans (canonView), no map iteration, no string building, and
// all working storage lives in the world's reusable scratch — steady
// state allocates nothing.
func (w *World) EncodeCanonical(buf []byte) []byte {
	if w.sym == nil || w.symRes == nil {
		return w.Encode(buf)
	}
	sc := w.symScratch
	if sc == nil {
		sc = &symScratch{}
		w.symScratch = sc
	}
	view := w.canonView()
	for gi, grp := range w.symRes.groups {
		for len(sc.subs) < len(grp) {
			sc.subs = append(sc.subs, nil)
		}
		for ri := range grp {
			rep := &grp[ri]
			sub := sc.subs[ri][:0]
			for _, pi := range rep.procs {
				sub = w.Procs[pi].M.Encode(sub)
			}
			for _, pi := range rep.procs {
				sub = w.encodeQueueLocal(sub, w.Chans[pi], rep.procs)
			}
			span := &view.spans[gi][ri]
			sub = append(sub, span.hdr...)
			sub = appendInt32s(sub, w.gvals[span.lo:span.hi])
			// The replica's armed timers, in definition order, keyed by
			// the replica-agnostic timer name plus the zone-relative
			// window — identical bytes across corresponding replicas
			// (timing.go requires corresponding timers to share names
			// and per-replica declaration order).
			if w.timing != nil {
				for ti := range w.timers {
					pi := int(w.timing.defProc[w.timers[ti].def])
					for _, rp := range rep.procs {
						if rp == pi {
							d := &w.timing.defs[w.timers[ti].def]
							sub = append(sub, d.Name...)
							sub = append(sub, 0)
							sub = w.encodeTimerRel(sub, &w.timers[ti])
							break
						}
					}
				}
			}
			sc.subs[ri] = sub
		}
		// Insertion-sort the replica order by sub-encoding bytes — the
		// canonicalization step. Group sizes are small (one entry per
		// UE), so insertion sort beats sort.Slice and allocates nothing.
		order := sc.order[:0]
		for i := range grp {
			j := len(order)
			for j > 0 && bytes.Compare(sc.subs[order[j-1]], sc.subs[i]) > 0 {
				j--
			}
			order = append(order, 0)
			copy(order[j+1:], order[j:])
			order[j] = i
		}
		sc.order = order
		for _, ri := range order {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sc.subs[ri])))
			buf = append(buf, sc.subs[ri]...)
		}
	}
	for _, pi := range w.symRes.rest {
		buf = w.Procs[pi].M.Encode(buf)
	}
	for _, pi := range w.symRes.rest {
		buf = w.encodeQueueLocal(buf, w.Chans[pi], nil)
	}
	// Non-replica globals: the complement of the namespaced spans.
	buf = append(buf, view.restHdr...)
	for _, r := range view.rest {
		buf = appendInt32s(buf, w.gvals[r.lo:r.hi])
	}
	// Armed timers of non-replica processes follow positionally, as in
	// Encode (replica-owned timers were folded into the sub-encodings).
	if w.timing != nil {
		for ti := range w.timers {
			pi := int(w.timing.defProc[w.timers[ti].def])
			inRest := false
			for _, rp := range w.symRes.rest {
				if rp == pi {
					inRest = true
					break
				}
			}
			if !inRest {
				continue
			}
			buf = binary.LittleEndian.AppendUint16(buf, uint16(w.timers[ti].def))
			buf = w.encodeTimerRel(buf, &w.timers[ti])
		}
	}
	return buf
}

// CanonicalHash returns the sum64 fingerprint of the symmetry-canonical
// encoding (EncodeCanonical), equal for permutation-equivalent worlds.
func (w *World) CanonicalHash() uint64 {
	h, _ := w.AppendCanonicalHash(nil)
	return h
}

// AppendCanonicalHash is AppendHash over the symmetry-canonical
// encoding: it encodes into buf[:0] and returns the sum64 fingerprint
// plus the reused buffer.
func (w *World) AppendCanonicalHash(buf []byte) (uint64, []byte) {
	buf = w.EncodeCanonical(buf[:0])
	return sum64(buf), buf
}
