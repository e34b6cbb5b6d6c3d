package core

import (
	"fmt"
	"reflect"
	"testing"

	"cnetverifier/internal/check"
)

// symTestN sizes the multi-UE matrix tests: three UEs normally, two
// under the race detector, where the ~50 fixpoint runs of the 34³
// product would blow the package test timeout. The n=2 worlds drive
// the identical code paths (multi-replica canonicalization, closure,
// parallel engine) over a 34² product.
func symTestN() int {
	if raceEnabled {
		return 2
	}
	return 3
}

func runSym(t *testing.T, sc Scoped, por, sym bool, workers int) *check.Result {
	t.Helper()
	opt := sc.Options
	opt.POR = por
	opt.Symmetry = sym
	opt.Workers = workers
	res, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatalf("check.Run(por=%v, sym=%v, workers=%d): %v", por, sym, workers, err)
	}
	return res
}

// TestSymViolationSetsMatchMultiUE is the exactness gate of the
// symmetry acceptance criteria: over the full engine matrix — POR
// on/off × Symmetry on/off × workers 1/8 — both multi-UE worlds
// (independent and shared-core, defective and fixed) report the one
// canonical violation set of the plain sequential run.
func TestSymViolationSetsMatchMultiUE(t *testing.T) {
	n := symTestN()
	worlds := map[string]func(bool) Scoped{
		"multiue":        func(fixed bool) Scoped { return MultiUEWorld(n, fixed) },
		"multiue-shared": func(fixed bool) Scoped { return MultiUEWorldShared(n, fixed) },
	}
	for name, mk := range worlds {
		for _, fixed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fixed=%v", name, fixed), func(t *testing.T) {
				want := violationSet(runSym(t, mk(fixed), false, false, 1))
				if !fixed && len(want) != n {
					t.Errorf("defective %d-UE world: plain run found %d violations, want one per UE", n, len(want))
				}
				for _, por := range []bool{false, true} {
					for _, sym := range []bool{false, true} {
						for _, workers := range []int{1, 8} {
							res := runSym(t, mk(fixed), por, sym, workers)
							// Absolute counts of the 3-UE worlds (see
							// TestPinnedStateCounts), pinned on runs this
							// matrix makes anyway.
							if n == 3 && !fixed && !por && workers == 1 {
								pinned := map[bool]int{false: 39304, true: 7140}[sym]
								if res.States != pinned {
									t.Errorf("sym=%v: %d states, pinned %d", sym, res.States, pinned)
								}
							}
							if got := violationSet(res); !reflect.DeepEqual(got, want) {
								t.Errorf("por=%v sym=%v workers=%d changes the violation set:\n  got:  %q\n  want: %q",
									por, sym, workers, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestSymParallelDeterminism pins the worker-count independence of the
// quotient search: with Symmetry on, workers=1 and workers=8 agree on
// the exact state count, not just the violation set (min-depth visited
// fixpoint over canonical hashes).
func TestSymParallelDeterminism(t *testing.T) {
	n := symTestN()
	for _, mk := range []func() Scoped{
		func() Scoped { return MultiUEWorld(n, false) },
		func() Scoped { return MultiUEWorldShared(n, false) },
	} {
		for _, por := range []bool{false, true} {
			seq := runSym(t, mk(), por, true, 1)
			par := runSym(t, mk(), por, true, 8)
			if seq.States != par.States {
				t.Errorf("por=%v: states differ across workers: seq=%d par=%d", por, seq.States, par.States)
			}
			if got, want := violationSet(par), violationSet(seq); !reflect.DeepEqual(got, want) {
				t.Errorf("por=%v: violation sets differ across workers:\n  seq: %q\n  par: %q", por, want, got)
			}
		}
	}
}

// TestSymReduction is the reduction gate: on the shared-core world the
// effect analysis sees one connected cluster (POR alone buys nothing),
// while canonicalization still collapses the replica permutations —
// close to n! for the 3-UE world. On the independent world symmetry
// composes with POR: por+sym explores no more than por alone.
func TestSymReduction(t *testing.T) {
	n := symTestN()
	plain := runSym(t, MultiUEWorldShared(n, false), false, false, 1)
	por := runSym(t, MultiUEWorldShared(n, false), true, false, 1)
	sym := runSym(t, MultiUEWorldShared(n, false), false, true, 1)
	if por.States != plain.States {
		t.Errorf("shared-core world decomposed by POR: por=%d plain=%d states (want equal: single cluster)",
			por.States, plain.States)
	}
	// Measured ratios sit just under n! (orbits with nontrivial
	// stabilizers): 5.5x at n=3, 1.9x at n=2.
	minRatio := 4.0
	if n == 2 {
		minRatio = 1.5
	}
	if float64(sym.States)*minRatio > float64(plain.States) {
		t.Errorf("symmetry reduction below %.1fx on shared %d-UE world: sym=%d plain=%d (%.1fx)",
			minRatio, n, sym.States, plain.States, float64(plain.States)/float64(sym.States))
	}
	t.Logf("shared %d-UE states: plain=%d por=%d sym=%d (%.1fx)",
		n, plain.States, por.States, sym.States, float64(plain.States)/float64(sym.States))

	iPor := runSym(t, MultiUEWorld(n, false), true, false, 1)
	iBoth := runSym(t, MultiUEWorld(n, false), true, true, 1)
	if iBoth.States > iPor.States {
		t.Errorf("por+sym explored more than por alone: %d > %d", iBoth.States, iPor.States)
	}
	if got, want := violationSet(iBoth), violationSet(iPor); !reflect.DeepEqual(got, want) {
		t.Errorf("por+sym changes the violation set:\n  got:  %q\n  want: %q", got, want)
	}
}

// TestSymNoDescriptorIdentity pins the degenerate case: on a world
// without a symmetry descriptor (or with single-replica groups only),
// Options.Symmetry must leave the semantic Result bit-identical — the
// canonical closure is a no-op on the state graph. Only the visited
// table's byte diagnostics (Result.Visited) are exempt: the canonical
// encoder frames replica groups differently even when it permutes
// nothing, so arena byte counts legitimately differ while states,
// violations and coverage do not.
func TestSymNoDescriptorIdentity(t *testing.T) {
	stripDiag := func(r *check.Result) *check.Result {
		c := *r
		c.Visited = nil
		return &c
	}
	plain := runSym(t, S1World(false), false, false, 1)
	sym := runSym(t, S1World(false), false, true, 1)
	if !reflect.DeepEqual(stripDiag(plain), stripDiag(sym)) {
		t.Errorf("Symmetry changed the run on a descriptor-less world:\nplain: %+v\nsym:   %+v", plain, sym)
	}
	p1 := runSym(t, MultiUEWorldShared(1, false), false, false, 1)
	s1 := runSym(t, MultiUEWorldShared(1, false), false, true, 1)
	if !reflect.DeepEqual(stripDiag(p1), stripDiag(s1)) {
		t.Errorf("Symmetry changed the run on a single-replica world")
	}
}

// TestSymRandomWalkIgnored pins that RandomWalk ignores Symmetry, like
// POR: sampled schedules have no visited set to canonicalize, and the
// walk's violations already carry the labels the walk saw.
func TestSymRandomWalkIgnored(t *testing.T) {
	sc := MultiUEWorldShared(2, false)
	opt := sc.Options
	opt.Strategy = check.RandomWalk
	opt.Walks = 50
	base, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Symmetry = true
	sym, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, sym) {
		t.Errorf("Symmetry changed a RandomWalk run")
	}
}
