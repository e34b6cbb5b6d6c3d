package model

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"cnetverifier/internal/types"
)

// This file checks the name-free encoding (state ordinals, name-set
// digests, memoized canonical views) directly: one-component changes
// always show in both encodings, a digest collision falls back to the
// names, memoized encodings never go stale across Restore, and the
// shared memos tolerate concurrent first use.

// encPair is a world's plain and canonical encodings.
func encPair(w *World) ([]byte, []byte) {
	return w.Encode(nil), w.EncodeCanonical(nil)
}

// mutation changes exactly one component of w, chosen by pick; it
// reports false when w has no such component to change.
type mutation struct {
	name string
	do   func(w *World, pick int) bool
}

var mutations = []mutation{
	{"machine state", func(w *World, pick int) bool {
		m := w.Procs[pick%len(w.Procs)].M
		states := m.Spec().States()
		for i := range states {
			if st := states[(pick+i)%len(states)]; st != m.State() {
				m.SetState(st)
				return true
			}
		}
		return false
	}},
	{"machine var", func(w *World, pick int) bool {
		for i := range w.Procs {
			m := w.Procs[(pick+i)%len(w.Procs)].M
			for name := range m.Spec().Vars {
				m.SetVar(name, m.Var(name)+1)
				return true
			}
		}
		return false
	}},
	{"global value", func(w *World, pick int) bool {
		names := w.layout().names
		name := names[pick%len(names)]
		w.SetGlobal(name, w.Global(name)+1)
		return true
	}},
	{"new shared global", func(w *World, pick int) bool {
		w.SetGlobal(fmt.Sprintf("g.fresh%d", pick%3), 0)
		return true
	}},
	{"new replica global", func(w *World, pick int) bool {
		w.SetGlobal(fmt.Sprintf("g.%s.fresh", symNS(1+pick%3)), 0)
		return true
	}},
	{"queue message field", func(w *World, pick int) bool {
		for i := range w.Chans {
			c := w.Chans[(pick+i)%len(w.Chans)]
			if len(c.Queue) == 0 {
				continue
			}
			m := &c.Queue[pick%len(c.Queue)]
			switch pick % 7 {
			case 0:
				m.Kind++
			case 1:
				m.Cause++
			case 2:
				m.Seq++
			case 3:
				m.System++
			case 4:
				m.Domain++
			case 5:
				m.Proto++
			default:
				m.From += "x"
			}
			return true
		}
		return false
	}},
	{"timer window", func(w *World, pick int) bool {
		if len(w.timers) == 0 {
			return false
		}
		w.timers[pick%len(w.timers)].hi++
		return true
	}},
}

// TestQuickOneComponentChangesEncoding: on reachable states of the
// timed symmetric world, changing exactly one component — a machine
// state, a var, a global value, the globals layout, a queued message
// field or a timer window — changes both Encode and EncodeCanonical.
// A change inside one replica cannot be a replica permutation, so the
// canonical encoding must see it too.
func TestQuickOneComponentChangesEncoding(t *testing.T) {
	const n = 3
	for _, mut := range mutations {
		mut := mut
		t.Run(mut.name, func(t *testing.T) {
			f := func(drive []byte, pick uint8) bool {
				w, events := newTimedSymWorld(t, n)
				driveSym(t, w, events, drive)
				plain, canon := encPair(w)
				m := w.Clone()
				if !mut.do(m, int(pick)) {
					return true
				}
				mp, mc := encPair(m)
				return !bytes.Equal(plain, mp) && !bytes.Equal(canon, mc)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLayoutNamesDistinguish: worlds that differ only in the name of
// one global — same count, same values — encode differently, both
// plainly and canonically, for a shared and for a replica-namespaced
// global. Only the name-set digests can tell them apart.
func TestLayoutNamesDistinguish(t *testing.T) {
	for _, pair := range [][2]string{
		{"g.x", "g.y"},
		{"g." + symNS(2) + ".x", "g." + symNS(2) + ".y"},
	} {
		a, _ := newSymWorld(t, 3)
		b, _ := newSymWorld(t, 3)
		a.SetGlobal(pair[0], 0)
		b.SetGlobal(pair[1], 0)
		ap, ac := encPair(a)
		bp, bc := encPair(b)
		if bytes.Equal(ap, bp) || bytes.Equal(ac, bc) {
			t.Errorf("globals %q and %q encode alike", pair[0], pair[1])
		}
	}
}

// TestDigestCollisionFallsBackToNames runs the encoders under a
// registry whose hash maps every name set to one digest: the first set
// owns it, every other set is written out by name, and the encodings
// stay exact — distinct layouts differ, permuted replicas still agree.
func TestDigestCollisionFallsBackToNames(t *testing.T) {
	defer func(r *nameRegistry) { digests = r }(digests)
	digests = &nameRegistry{sum: func([]byte) uint64 { return 42 }}

	mk := func(global string) *World {
		w, err := New(Config{
			Procs:   []ProcConfig{{Name: "A", Spec: pingSpec("B")}, {Name: "B", Spec: pongSpec()}},
			Globals: map[string]int{global: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := mk("g.a"), mk("g.b")
	ea, eb := a.Encode(nil), b.Encode(nil)
	if bytes.Equal(ea, eb) {
		t.Fatal("colliding layouts encode identically")
	}
	if bytes.Contains(ea, []byte("g.a\x00")) {
		t.Error("the digest's owner was written by name")
	}
	if !bytes.Contains(eb, []byte("g.b\x00")) {
		t.Error("the colliding layout was not written by name")
	}
	// Growing b's layout makes a third set, again written by name.
	b.SetGlobal("g.c", 0)
	if !bytes.Contains(b.Encode(nil), []byte("g.b\x00g.c\x00")) {
		t.Error("grown colliding layout was not written by name")
	}

	// Under symmetry the replica suffix sets are equal, so they share
	// the (colliding) digest and permuted states still encode alike.
	w, events := newSymWorld(t, 3)
	driveSym(t, w, events, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	for _, perm := range allPerms(3) {
		pw := permuteSymWorld(t, w, 3, perm)
		if !bytes.Equal(w.EncodeCanonical(nil), pw.EncodeCanonical(nil)) {
			t.Fatalf("perm %v: canonical encodings differ under a colliding registry", perm)
		}
	}
}

// TestQuickRestoreKeepsEncodingsFresh: Apply → Restore → Apply another
// step, with every encoding memo warmed in between, encodes exactly
// like a world that reached the same state by replay without ever
// encoding on the way — so Restore never keeps a stale memo.
func TestQuickRestoreKeepsEncodingsFresh(t *testing.T) {
	const n = 3
	var u Undo
	f := func(drive []byte, first, second uint8) bool {
		w, events := newTimedSymWorld(t, n)
		for _, b := range drive {
			driveSym(t, w, events, []byte{b})
			encPair(w)
		}
		steps := w.Steps(events)
		if len(steps) == 0 {
			return true
		}
		a, b := steps[int(first)%len(steps)], steps[int(second)%len(steps)]
		w.Save(&u)
		if _, err := w.Apply(a); err != nil {
			t.Fatal(err)
		}
		encPair(w)
		w.Restore(&u)
		if _, err := w.Apply(b); err != nil {
			t.Fatal(err)
		}
		gotPlain, gotCanon := encPair(w)

		ref, _ := newTimedSymWorld(t, n)
		driveSym(t, ref, events, drive)
		if _, err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
		wantPlain, wantCanon := encPair(ref)
		return bytes.Equal(gotPlain, wantPlain) && bytes.Equal(gotCanon, wantCanon)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFirstEncode: clones sharing a fresh layout encode for
// the first time on several goroutines at once — racing on the
// layout's header and canonical-view memos and on the digest registry
// — and grow the same new global concurrently. Every goroutine must
// produce the bytes a sequential encode produces. Run under -race.
func TestConcurrentFirstEncode(t *testing.T) {
	const goroutines = 8
	w, events := newTimedSymWorld(t, 3)
	driveSym(t, w, events, []byte{3, 1, 4, 1, 5, 9, 2, 6})
	clones := make([]*World, goroutines)
	for i := range clones {
		clones[i] = w.Clone()
	}
	type result struct{ plain, canon, grownPlain, grownCanon []byte }
	results := make([]result, goroutines)
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clones[i]
			r := &results[i]
			r.plain, r.canon = encPair(c)
			c.SetGlobal("g."+symNS(2)+".late", 1)
			if err := c.Inject(symDevName(1), types.Message{Kind: types.MsgPowerOn}); err != nil {
				t.Error(err)
			}
			r.grownPlain, r.grownCanon = encPair(c)
		}(i)
	}
	wg.Wait()

	ref := w.Clone()
	plain, canon := encPair(ref)
	ref.SetGlobal("g."+symNS(2)+".late", 1)
	if err := ref.Inject(symDevName(1), types.Message{Kind: types.MsgPowerOn}); err != nil {
		t.Fatal(err)
	}
	grownPlain, grownCanon := encPair(ref)
	for i, r := range results {
		if !bytes.Equal(r.plain, plain) || !bytes.Equal(r.canon, canon) ||
			!bytes.Equal(r.grownPlain, grownPlain) || !bytes.Equal(r.grownCanon, grownCanon) {
			t.Errorf("goroutine %d encoded differently from the sequential reference", i)
		}
	}
}
