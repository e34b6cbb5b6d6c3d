package model_test

// External test package: the round trip runs over the standard scoped
// worlds of internal/core, which itself imports internal/model.

import (
	"bytes"
	"reflect"
	"testing"

	"cnetverifier/internal/core"
	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// decodeWorlds are the worlds whose reachable states the round trip
// covers: every standard scoped world, NAS-timed S1 (clock, timers)
// and the shared-core multi-UE world (replica globals).
func decodeWorlds(t testing.TB) map[string]core.Scoped {
	t.Helper()
	out := make(map[string]core.Scoped)
	for _, name := range []string{"s1", "s2", "s3", "s4cs", "s4ps", "s6", "multiue-shared"} {
		out[name] = core.StandardWorlds(false)[name]
	}
	timed, err := core.WithTiming(core.S1World(false), core.TimingNAS)
	if err != nil {
		t.Fatal(err)
	}
	out["s1-timing"] = timed
	return out
}

// reachable visits every state of s reachable within its depth bound,
// handing each to visit, once, with the step that first reached it
// (zero for the root). The search is depth first and in place
// (Save/Restore, no clones); a state first reached deeper than its
// minimal depth is expanded again when a shorter path shows up, so the
// depth bound cuts exactly the states a breadth-first search would cut.
func reachable(t testing.TB, s core.Scoped, visit func(w *model.World, last model.Step)) {
	t.Helper()
	w := s.World.Clone()
	minDepth := map[string]int{string(w.Encode(nil)): 0}
	visit(w, model.Step{})
	var buf []byte
	type frame struct {
		undo  model.Undo
		steps []model.Step
	}
	frames := make([]frame, s.Options.MaxDepth)
	var rec func(depth int)
	rec = func(depth int) {
		if depth >= s.Options.MaxDepth {
			return
		}
		f := &frames[depth]
		w.Save(&f.undo)
		f.steps = w.StepsAppend(f.steps[:0], s.Scenario.Events(w))
		for _, st := range f.steps {
			applied, err := w.Apply(st)
			if err != nil {
				t.Fatal(err)
			}
			buf = w.Encode(buf[:0])
			d, seen := minDepth[string(buf)]
			if !seen || depth+1 < d {
				minDepth[string(buf)] = depth + 1
				if !seen {
					visit(w, applied)
				}
				rec(depth + 1)
			}
			w.Restore(&f.undo)
		}
	}
	rec(0)
}

// TestDecodeIntoRoundTrip decodes every reachable state of the decode
// worlds into a reused clone of the initial world and checks that the
// decoded world is the same state: it re-encodes to the same bytes,
// enumerates the same steps and gets the same monitor verdicts.
func TestDecodeIntoRoundTrip(t *testing.T) {
	for name, s := range decodeWorlds(t) {
		t.Run(name, func(t *testing.T) {
			if name == "s1-timing" && model.RaceEnabled {
				t.Skip("205,768 states; the round trip runs on one goroutine, so the race detector has nothing to check")
			}
			dec := s.World.Clone()
			states := 0
			reachable(t, s, func(w *model.World, last model.Step) {
				states++
				enc := w.Encode(nil)
				if err := dec.DecodeInto(enc); err != nil {
					t.Fatalf("state %d: %v", states, err)
				}
				if got := dec.Encode(nil); !bytes.Equal(got, enc) {
					t.Fatalf("state %d re-encodes differently:\n got %x\nwant %x", states, got, enc)
				}
				want := w.Steps(s.Scenario.Events(w))
				if got := dec.Steps(s.Scenario.Events(dec)); !reflect.DeepEqual(got, want) {
					t.Fatalf("state %d steps differ:\n got %v\nwant %v", states, got, want)
				}
				for _, p := range s.Props {
					if got, want := p.Check(dec, last), p.Check(w, last); got != want {
						t.Fatalf("state %d: %s reports %q on the decoded world, %q on the original", states, p.Name(), got, want)
					}
				}
			})
			if states < 2 {
				t.Fatalf("only %d states reached", states)
			}
		})
	}
}

// FuzzDecodeInto feeds arbitrary bytes to DecodeInto on the decode
// worlds: malformed input must come back as an error, never a panic,
// and input that decodes must re-encode to a state that decodes again.
// The seeds are the states along a short deterministic schedule of each
// world, whole, cut in half and with a trailing byte.
func FuzzDecodeInto(f *testing.F) {
	worlds := decodeWorlds(f)
	names := []string{"s1", "s2", "s3", "s4cs", "s4ps", "s6", "multiue-shared", "s1-timing"}
	for wi, name := range names {
		s := worlds[name]
		w := s.World.Clone()
		for i := 0; i < 12; i++ {
			enc := w.Encode(nil)
			f.Add(uint8(wi), enc)
			f.Add(uint8(wi), enc[:len(enc)/2])
			f.Add(uint8(wi), append(append([]byte(nil), enc...), 0))
			steps := w.Steps(s.Scenario.Events(w))
			if len(steps) == 0 {
				break
			}
			if _, err := w.Apply(steps[(7*i)%len(steps)]); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, wi uint8, enc []byte) {
		s := worlds[names[int(wi)%len(names)]]
		w := s.World.Clone()
		if err := w.DecodeInto(enc); err != nil {
			return
		}
		again := w.Encode(nil)
		c := s.World.Clone()
		if err := c.DecodeInto(again); err != nil {
			t.Fatalf("re-encoding of a decoded state does not decode: %v", err)
		}
		if got := c.Encode(nil); !bytes.Equal(got, again) {
			t.Fatalf("decode is not stable:\n got %x\nwant %x", got, again)
		}
		_ = w.Steps(s.Scenario.Events(w))
	})
}

// TestDecodeIntoRejectsMalformed pins the error cases FuzzDecodeInto
// explores: truncated input, a state ordinal past the spec's state
// list, an unknown globals digest and trailing bytes.
func TestDecodeIntoRejectsMalformed(t *testing.T) {
	s := core.S1World(false)
	enc := s.World.Encode(nil)
	w := s.World.Clone()
	if err := w.DecodeInto(enc); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte(nil), enc...), 0),
		"ordinal":   append([]byte{0xfe, 0xff}, enc[2:]...),
	}
	// Flip a bit of the digest, the header's last byte.
	hdr := globalsHeader(t, s.World)
	at := bytes.Index(enc, hdr)
	if at < 0 {
		t.Fatal("globals header not found in the encoding")
	}
	bad := append([]byte(nil), enc...)
	bad[at+len(hdr)-1] ^= 0xff
	cases["digest"] = bad
	for name, in := range cases {
		if err := w.DecodeInto(in); err == nil {
			t.Errorf("%s: malformed encoding accepted", name)
		}
	}
}

// globalsHeader returns the globals header of an untimed world's
// encoding: the 11 bytes (count, digest tag, digest) in front of the
// 4-byte values that end it.
func globalsHeader(t *testing.T, w *model.World) []byte {
	t.Helper()
	enc := w.Encode(nil)
	n := len(w.GlobalsMap())
	if n == 0 || w.TimingEnabled() {
		t.Fatal("want an untimed world with globals")
	}
	return enc[len(enc)-4*n-11 : len(enc)-4*n]
}

// TestDecodeIntoRareComponents round-trips the parts of a state the
// standard worlds never reach: a control state outside the spec (the
// name escape), a runtime-grown machine variable, a global added after
// construction (a grown layout) and a queued message whose sender is no
// process of the world. The decoding world starts from the initial
// state, so every component must come from the encoding.
func TestDecodeIntoRareComponents(t *testing.T) {
	s := core.S1World(false)
	w := s.World.Clone()
	m := w.Procs[0].M
	m.SetState("NOT-IN-SPEC")
	m.SetVar("zz.grown", 7)
	w.SetGlobal("g.zz.grown", 9)
	if err := w.Inject(w.Procs[1].Name, types.Message{Kind: types.MsgUserMove, From: "outside"}); err != nil {
		t.Fatal(err)
	}
	enc := w.Encode(nil)
	dec := s.World.Clone()
	if err := dec.DecodeInto(enc); err != nil {
		t.Fatal(err)
	}
	if got := dec.Encode(nil); !bytes.Equal(got, enc) {
		t.Fatalf("re-encodes differently:\n got %x\nwant %x", got, enc)
	}
	if dec.String() != w.String() {
		t.Fatalf("decodes to\n%s\nwant\n%s", dec, w)
	}
}
