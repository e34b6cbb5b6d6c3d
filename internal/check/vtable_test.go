package check

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// vtOp is one reference-model operation: mark key #Key at depth Depth.
// testing/quick generates random sequences of these; keys are drawn
// from a small alphabet so sequences revisit states (the interesting
// paths: rediscovery, min-depth improvement, fingerprint collision).
type vtOp struct {
	Key   uint8
	Depth uint8
}

// vtKey derives a (hash, encoding) pair for a reference key. Keys pair
// up on fingerprints — 2k and 2k+1 share fp k+1 with distinct low hash
// bits and distinct encodings — so every exact-mode sequence exercises
// the collision backstop and every compact-mode sequence exercises
// fingerprint merging.
func vtKey(k uint8) (h uint64, enc []byte) {
	fp := uint64(k/2 + 1)
	return fp<<vtDepthBits | uint64(k), []byte(fmt.Sprintf("state-encoding-%03d", k))
}

// vtRefEntry is one reference-model state: its minimal depth and the
// identity the table reported when the state was first marked.
type vtRefEntry struct {
	depth int
	id    uint64
}

// vtRefMark is the reference model: a plain min-depth map keyed by the
// full encoding (exact mode) or the fingerprint (compact mode). A new
// key adopts the identity the table reported (id), which must be
// non-zero and not already taken by another key; every later mark of
// the key must report that identity and the prior minimal depth.
func vtRefMark(ref map[string]vtRefEntry, ids map[uint64]string, key string, depth int, id uint64) markResult {
	prior, ok := ref[key]
	if !ok {
		if _, taken := ids[id]; id == 0 || taken {
			// A zero or reused identity is wrong whatever the table
			// says: expect its complement, which cannot match.
			return markResult{isNew: true, expand: true, depth: depth, id: ^id}
		}
		ids[id] = key
		ref[key] = vtRefEntry{depth, id}
		return markResult{isNew: true, expand: true, depth: depth, id: id}
	}
	if depth < prior.depth {
		ref[key] = vtRefEntry{depth, prior.id}
		return markResult{expand: true, depth: prior.depth, id: prior.id}
	}
	return markResult{depth: prior.depth, id: prior.id}
}

// TestVTableMatchesReferenceMap checks the fingerprint table against
// the reference map over random operation sequences, in both exact and
// compact mode, via testing/quick.
func TestVTableMatchesReferenceMap(t *testing.T) {
	for _, compact := range []bool{false, true} {
		name := "exact"
		if compact {
			name = "compact"
		}
		t.Run(name, func(t *testing.T) {
			prop := func(ops []vtOp) bool {
				v := newVisitedTable(compact, false, 0, nil, 4)
				ref := make(map[string]vtRefEntry)
				ids := make(map[uint64]string)
				for _, op := range ops {
					h, enc := vtKey(op.Key)
					refKey := string(enc)
					if compact {
						refKey = fmt.Sprintf("fp:%d", vtFP(h))
					}
					depth := int(op.Depth)
					got, err := v.mark(h, enc, depth)
					if err != nil {
						t.Logf("mark error: %v", err)
						return false
					}
					want := vtRefMark(ref, ids, refKey, depth, got.id)
					if got != want {
						t.Logf("key %d depth %d: got %+v want %+v", op.Key, depth, got, want)
						return false
					}
				}
				if v.size() != len(ref) {
					t.Logf("size %d, reference %d", v.size(), len(ref))
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestVTableGrowthKeepsEntries inserts far more states than the initial
// table holds (sequentially), forcing repeated cooperative growth, and
// then verifies every entry survived migration with its minimal depth:
// re-marking at the recorded min is a no-op, one shallower expands.
func TestVTableGrowthKeepsEntries(t *testing.T) {
	v := newVisitedTable(false, false, 0, nil, 4)
	const n = 5000
	rng := rand.New(rand.NewSource(7))
	min := make(map[int]int, n)
	for round := 0; round < 3; round++ {
		for k := 0; k < n; k++ {
			depth := rng.Intn(500) + 2
			h := uint64(k+1)<<vtDepthBits | uint64(k)
			enc := []byte(fmt.Sprintf("grow-%05d", k))
			if _, err := v.mark(h, enc, depth); err != nil {
				t.Fatal(err)
			}
			if d, ok := min[k]; !ok || depth < d {
				min[k] = depth
			}
		}
	}
	if v.size() != n {
		t.Fatalf("size %d after growth, want %d", v.size(), n)
	}
	for k, d := range min {
		h := uint64(k+1)<<vtDepthBits | uint64(k)
		enc := []byte(fmt.Sprintf("grow-%05d", k))
		m, err := v.mark(h, enc, d)
		if err != nil {
			t.Fatal(err)
		}
		if m.isNew || m.expand {
			t.Fatalf("key %d lost its min depth %d across growth: %+v", k, d, m)
		}
		if m, _ = v.mark(h, enc, d-1); !m.expand || m.isNew {
			t.Fatalf("key %d at depth %d-1: want depth improvement, got %+v", k, d, m)
		}
	}
	s, _ := v.stats()
	if s.Live != n {
		t.Fatalf("stats.Live = %d, want %d", s.Live, n)
	}
	if s.Grows == 0 {
		t.Fatal("expected table growth from 4 slots")
	}
	if s.ArenaBytes == 0 {
		t.Fatal("exact mode retained no arena bytes")
	}
}

// TestVTableRaceHammer is the concurrent torture test: workers hammer
// overlapping key ranges with clashing depths into a table starting at
// minimum size, so claims, min-depth CAS merges and chunked migrations
// all race. Afterwards the table must hold exactly the distinct keys,
// each at the global minimum depth. Run under -race this also checks
// the claim/publish and seal/copy protocols for data races.
func TestVTableRaceHammer(t *testing.T) {
	const (
		workers = 8
		keys    = 4000
	)
	v := newVisitedTable(false, false, 0, nil, 4)
	depth := func(k, g int) int { return (k*7+g*13)%97 + 2 }
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, k := range rng.Perm(keys) {
				h := uint64(k+1)<<vtDepthBits | uint64(k)
				enc := []byte(fmt.Sprintf("hammer-%05d", k))
				if _, err := v.mark(h, enc, depth(k, g)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if v.size() != keys {
		t.Fatalf("size %d after concurrent inserts, want %d", v.size(), keys)
	}
	if s, _ := v.stats(); s.Live != keys {
		t.Fatalf("stats.Live = %d, want %d", s.Live, keys)
	}
	for k := 0; k < keys; k++ {
		best := depth(k, 0)
		for g := 1; g < workers; g++ {
			if d := depth(k, g); d < best {
				best = d
			}
		}
		h := uint64(k+1)<<vtDepthBits | uint64(k)
		enc := []byte(fmt.Sprintf("hammer-%05d", k))
		m, err := v.mark(h, enc, best)
		if err != nil {
			t.Fatal(err)
		}
		if m.isNew || m.expand {
			t.Fatalf("key %d: min depth %d not retained: %+v", k, best, m)
		}
	}
}

// TestVTableExactCollisionBackstop pins the exactness backstop: two
// distinct encodings sharing a fingerprint are kept as two states, and
// paranoid mode reports the collision as an error instead.
func TestVTableExactCollisionBackstop(t *testing.T) {
	h := uint64(42) << vtDepthBits
	a, b := []byte("state-A"), []byte("state-B")

	v := newVisitedTable(false, false, 0, nil, 16)
	if m, err := v.mark(h, a, 3); err != nil || !m.isNew {
		t.Fatalf("first state: %+v, %v", m, err)
	}
	if m, err := v.mark(h, b, 3); err != nil || !m.isNew {
		t.Fatalf("colliding state not separated: %+v, %v", m, err)
	}
	if m, err := v.mark(h, a, 5); err != nil || m.isNew || m.expand {
		t.Fatalf("revisit of first state after collision: %+v, %v", m, err)
	}
	if v.size() != 2 {
		t.Fatalf("size %d, want 2 distinct states", v.size())
	}

	p := newVisitedTable(false, true, 0, nil, 16)
	if _, err := p.mark(h, a, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.mark(h, b, 3); err == nil {
		t.Fatal("paranoid mode accepted a fingerprint collision")
	} else if !strings.Contains(err.Error(), "collision") {
		t.Fatalf("unexpected collision error: %v", err)
	}
}

// TestVTableCompactSemantics pins hash compaction: a fingerprint match
// IS the state (distinct encodings merge), there is no arena, and the
// omission bound is the documented pairwise union bound.
func TestVTableCompactSemantics(t *testing.T) {
	v := newVisitedTable(true, false, 0, nil, 16)
	h := uint64(42) << vtDepthBits
	if m, err := v.mark(h, []byte("state-A"), 3); err != nil || !m.isNew {
		t.Fatalf("first state: %+v, %v", m, err)
	}
	if m, err := v.mark(h, []byte("state-B"), 3); err != nil || m.isNew || m.expand {
		t.Fatalf("compact mode split a fingerprint match: %+v, %v", m, err)
	}
	if m, err := v.mark(h, []byte("state-B"), 1); err != nil || m.isNew || !m.expand {
		t.Fatalf("compact min-depth improvement: %+v, %v", m, err)
	}
	for k := 1; k < 10; k++ {
		if _, err := v.mark(uint64(100+k)<<vtDepthBits, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if v.size() != 10 {
		t.Fatalf("size %d, want 10 fingerprints", v.size())
	}
	want := 10.0 * 9 / 2 / float64(uint64(1)<<vtFPBits)
	if got := v.omission(); got != want {
		t.Fatalf("omission = %g, want %g", got, want)
	}
	s, _ := v.stats()
	if !s.Compact || s.ArenaBytes != 0 {
		t.Fatalf("compact stats: %+v", s)
	}

	exact := newVisitedTable(false, false, 0, nil, 16)
	if got := exact.omission(); got != 0 {
		t.Fatalf("exact omission = %g, want 0", got)
	}
}

// TestVTableCaps pins MaxStates and Budget enforcement: refusals are
// capped, do not consume tokens, and leave the table at the limit.
func TestVTableCaps(t *testing.T) {
	v := newVisitedTable(false, false, 3, nil, 16)
	for k := 0; k < 3; k++ {
		if m, _ := v.mark(uint64(k+1)<<vtDepthBits, []byte{byte(k)}, 1); !m.isNew {
			t.Fatalf("state %d refused below the cap: %+v", k, m)
		}
	}
	if m, _ := v.mark(uint64(99)<<vtDepthBits, []byte{99}, 1); !m.capped {
		t.Fatalf("state over MaxStates not capped: %+v", m)
	}
	// Rediscovery of a recorded state still works at the cap.
	if m, _ := v.mark(uint64(1)<<vtDepthBits, []byte{0}, 0); !m.expand || m.isNew {
		t.Fatalf("min-depth merge at the cap: %+v", m)
	}
	if v.size() != 3 {
		t.Fatalf("size %d, want 3", v.size())
	}

	b := NewBudget(2)
	vb := newVisitedTable(false, false, 0, b, 16)
	for k := 0; k < 2; k++ {
		if m, _ := vb.mark(uint64(k+1)<<vtDepthBits, []byte{byte(k)}, 1); !m.isNew {
			t.Fatalf("state %d refused with budget left: %+v", k, m)
		}
	}
	if m, _ := vb.mark(uint64(99)<<vtDepthBits, []byte{99}, 1); !m.capped {
		t.Fatalf("state over Budget not capped: %+v", m)
	}
	if b.Remaining() != 0 {
		t.Fatalf("budget remaining %d, want 0", b.Remaining())
	}
}

// TestRunRejectsCompactParanoid pins the Options contract: compaction
// discards the encodings paranoid mode verifies against.
func TestRunRejectsCompactParanoid(t *testing.T) {
	w := counterWorld(t)
	_, err := Run(w, []Property{limitProp{limit: 3}}, moveScenario(),
		Options{MaxDepth: 5, Compact: true, Paranoid: true})
	if err == nil {
		t.Fatal("Run accepted Compact+Paranoid")
	}
}

// TestCompactRunMatchesExact runs the same world in exact and compact
// mode: at these state counts a real fingerprint collision is
// (provably, via the omission bound) absent, so states, transitions and
// violations must agree, and only compact mode reports a nonzero bound.
func TestCompactRunMatchesExact(t *testing.T) {
	w := counterWorld(t)
	props := []Property{limitProp{limit: 3}}
	opt := Options{MaxDepth: 8}
	exact, err := Run(w, props, moveScenario(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Compact = true
	compact, err := Run(counterWorld(t), props, moveScenario(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if exact.States != compact.States || exact.Transitions != compact.Transitions {
		t.Fatalf("exact %d states/%d transitions, compact %d/%d",
			exact.States, exact.Transitions, compact.States, compact.Transitions)
	}
	if len(exact.Violations) != len(compact.Violations) {
		t.Fatalf("violations: exact %d, compact %d", len(exact.Violations), len(compact.Violations))
	}
	if exact.Omission != 0 {
		t.Fatalf("exact mode reported omission %g", exact.Omission)
	}
	if compact.Omission <= 0 || compact.Omission >= 1e-6 {
		t.Fatalf("compact omission bound %g out of expected range", compact.Omission)
	}
	if exact.Visited == nil || exact.Visited.ArenaBytes == 0 {
		t.Fatal("exact run carries no arena stats")
	}
	if compact.Visited == nil || !compact.Visited.Compact {
		t.Fatal("compact run not flagged in stats")
	}
}
