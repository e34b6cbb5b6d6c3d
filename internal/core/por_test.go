package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cnetverifier/internal/check"
)

// violationSet canonicalizes a result's violations into the sorted
// (property, description) pairs — the checker's determinism contract
// for POR (counterexample paths are cluster-local under POR, so only
// the set is comparable).
func violationSet(res *check.Result) []string {
	out := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		out = append(out, v.Property+"\x00"+v.Desc)
	}
	sort.Strings(out)
	return out
}

func runWith(t *testing.T, sc Scoped, por bool, workers int) *check.Result {
	t.Helper()
	opt := sc.Options
	opt.POR = por
	opt.Workers = workers
	res, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatalf("check.Run(por=%v, workers=%d): %v", por, workers, err)
	}
	return res
}

// TestPORViolationSetsMatchStandardWorlds is the S1–S6 golden gate of
// the POR acceptance criteria: over every standard world (defective
// and fixed variants), the violation set with POR enabled is identical
// to the violation set with POR disabled.
func TestPORViolationSetsMatchStandardWorlds(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		fixed := fixed
		for _, name := range WorldNames() {
			name := name
			t.Run(fmt.Sprintf("%s/fixed=%v", name, fixed), func(t *testing.T) {
				plain := runWith(t, StandardWorlds(fixed)[name], false, 1)
				por := runWith(t, StandardWorlds(fixed)[name], true, 1)
				if got, want := violationSet(por), violationSet(plain); !reflect.DeepEqual(got, want) {
					t.Errorf("POR changes the violation set:\n  por:   %q\n  plain: %q", got, want)
				}
				if por.States > plain.States {
					t.Errorf("POR visited more states than the plain run: %d > %d", por.States, plain.States)
				}
			})
		}
	}
}

// TestPORSingleClusterIdentical pins the fall-through contract: on a
// world the effect analysis cannot decompose (the S1 stacks are
// coupled through g.sys/g.pdp/g.eps), POR is the identity — the full
// Result matches field for field, paths included.
func TestPORSingleClusterIdentical(t *testing.T) {
	plain := runWith(t, S1World(false), false, 1)
	por := runWith(t, S1World(false), true, 1)
	if !reflect.DeepEqual(plain, por) {
		t.Errorf("single-cluster POR run differs from plain run:\nplain: %+v\npor:   %+v", plain, por)
	}
}

// TestPORMultiUEReduction is the ≥5× acceptance criterion: on the
// 3-UE world the cluster decomposition must find the same violations
// while visiting at least 5× fewer states.
func TestPORMultiUEReduction(t *testing.T) {
	plain := runWith(t, MultiUEWorld(3, false), false, 1)
	por := runWith(t, MultiUEWorld(3, false), true, 1)

	if got, want := violationSet(por), violationSet(plain); !reflect.DeepEqual(got, want) {
		t.Fatalf("POR changes the 3-UE violation set:\n  por:   %q\n  plain: %q", got, want)
	}
	if len(por.Violations) != 3 {
		t.Errorf("3-UE defective world: got %d violations, want one S4 HOL violation per UE (3)", len(por.Violations))
	}
	// The product lies within the depth bound (exactly per-UE states
	// cubed). Truncated is read off the visited table's minimal depths,
	// so a path that first reaches a state too deep no longer reports
	// truncation.
	if plain.Truncated {
		t.Errorf("plain 3-UE run reports truncation; its %d states all lie within depth %d", plain.States, plain.MaxDepth)
	}
	if por.States*5 > plain.States {
		t.Errorf("POR reduction below 5x: por=%d states, plain=%d states (%.1fx)",
			por.States, plain.States, float64(plain.States)/float64(por.States))
	}
	t.Logf("3-UE states: plain=%d por=%d (%.1fx), transitions: plain=%d por=%d",
		plain.States, por.States, float64(plain.States)/float64(por.States),
		plain.Transitions, por.Transitions)
}

// TestPORFixedMultiUEClean pins the fix side: with FixParallelUpdate
// the 3-UE world has no violations, under both engines.
func TestPORFixedMultiUEClean(t *testing.T) {
	for _, por := range []bool{false, true} {
		res := runWith(t, MultiUEWorld(3, true), por, 1)
		if len(res.Violations) != 0 {
			t.Errorf("fixed 3-UE world (por=%v): got %d violations, want 0", por, len(res.Violations))
		}
	}
}

// TestPORParallelDeterminism extends the parallel determinism contract
// to POR runs: workers=1 and workers=8 report the same states count
// and violation set on the decomposed world.
func TestPORParallelDeterminism(t *testing.T) {
	seq := runWith(t, MultiUEWorld(2, false), true, 1)
	par := runWith(t, MultiUEWorld(2, false), true, 8)
	if seq.States != par.States {
		t.Errorf("states differ across workers: seq=%d par=%d", seq.States, par.States)
	}
	if got, want := violationSet(par), violationSet(seq); !reflect.DeepEqual(got, want) {
		t.Errorf("violation sets differ across workers:\n  seq: %q\n  par: %q", want, got)
	}
}

// TestPORRandomWalkIgnored pins that RandomWalk ignores POR (sampled
// schedules are not an interleaving fixpoint to decompose).
func TestPORRandomWalkIgnored(t *testing.T) {
	sc := MultiUEWorld(2, false)
	opt := sc.Options
	opt.Strategy = check.RandomWalk
	opt.Walks = 50
	base, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.POR = true
	por, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, por) {
		t.Errorf("POR changed a RandomWalk run")
	}
}
