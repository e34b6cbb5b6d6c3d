package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cnetverifier/internal/check"
	"cnetverifier/internal/names"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden counterexample traces")

// goldenWorlds are the S1–S6 scoped worlds pinned by golden traces.
// (The full world random-walks a sampled scenario space and is covered
// by the determinism suite instead.)
func goldenWorlds() []Scoped {
	return []Scoped{
		S1World(false),
		S2World(false),
		S3World(false, names.SwitchReselect),
		S4CSWorld(false),
		S4PSWorld(false),
		S6World(false),
	}
}

// renderGolden serializes the first discovered violation of a world —
// property, description, every step of the counterexample, and the
// state Replay reaches, rendered line by line by model.World.String —
// into the format stored under testdata/golden. The rendering names
// every component, so the goldens do not pin the checker's internal
// state encoding.
func renderGolden(s Scoped, v check.Violation) (string, error) {
	end, err := check.Replay(s.World, v.Path)
	if err != nil {
		return "", fmt.Errorf("replay: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "finding: %s\n", s.Finding)
	fmt.Fprintf(&b, "property: %s\n", v.Property)
	fmt.Fprintf(&b, "desc: %s\n", v.Desc)
	fmt.Fprintf(&b, "steps: %d\n", len(v.Path))
	for i, st := range v.Path {
		fmt.Fprintf(&b, "%3d. [%s] %s\n", i+1, st.Kind, st)
	}
	for _, line := range strings.SplitAfter(end.String(), "\n") {
		if line != "" {
			fmt.Fprintf(&b, "final-state: %s", line)
		}
	}
	return b.String(), nil
}

// TestReplayGolden screens each defective S1–S6 world and pins the
// first counterexample plus the byte-for-byte state Replay reproduces.
// Any drift in the model encoding, the exploration order or the replay
// machinery shows up as a golden diff. Refresh intentionally with:
//
//	go test ./internal/core -run TestReplayGolden -update
func TestReplayGolden(t *testing.T) {
	for _, s := range goldenWorlds() {
		name := strings.ToLower(string(s.Finding))
		if s.Finding == "S4" {
			// Two scoped S4 worlds share the finding ID; disambiguate by
			// the violated service property.
			if s.World.Proc(names.UESM) != nil {
				name = "s4ps"
			} else {
				name = "s4cs"
			}
		}
		s := s
		t.Run(name, func(t *testing.T) {
			r, err := Screen(s, check.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Result.Violations) == 0 {
				t.Fatal("defective world reported no violation")
			}
			got, err := renderGolden(s, r.Result.Violations[0])
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join("testdata", "golden", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}

			// Independently of the golden text, Replay twice must land on
			// the identical encoded state: replay is deterministic.
			e1, err := check.Replay(s.World, r.Result.Violations[0].Path)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := check.Replay(s.World, r.Result.Violations[0].Path)
			if err != nil {
				t.Fatal(err)
			}
			if string(e1.Encode(nil)) != string(e2.Encode(nil)) {
				t.Error("two replays of the same counterexample diverged")
			}
		})
	}
}

// TestReplayGoldenMultiUEShared pins the S4-class counterexample of
// the shared-core 2-UE world (one g.pdp/g.eps context block, per-UE
// namespaces otherwise): the first canonical violation of a plain
// screening run, replayed and serialized like the S1–S6 goldens.
// Refresh intentionally with:
//
//	go test ./internal/core -run TestReplayGoldenMultiUEShared -update
func TestReplayGoldenMultiUEShared(t *testing.T) {
	s := MultiUEWorldShared(2, false)
	r, err := Screen(s, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Result.Violations) == 0 {
		t.Fatal("defective shared 2-UE world reported no violation")
	}
	got, err := renderGolden(s, r.Result.Violations[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "s4shared.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for s4shared:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The symmetry quotient finds some violations only through the
	// permutation closure, which rewrites counterexample paths along
	// the permutation. Those rewritten paths must still be genuine
	// executions: every violation of a -sym run replays cleanly.
	opt := s.Options
	opt.Symmetry = true
	rs, err := Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Result.Violations) != len(r.Result.Violations) {
		t.Fatalf("sym run found %d violations, plain %d",
			len(rs.Result.Violations), len(r.Result.Violations))
	}
	for _, v := range rs.Result.Violations {
		if _, err := check.Replay(s.World, v.Path); err != nil {
			t.Errorf("sym violation %q [%s] does not replay: %v", v.Property, v.Desc, err)
		}
	}
}
