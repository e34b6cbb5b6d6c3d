package check_test

// External test package: the determinism suite drives the checker
// through the standard scoped worlds of internal/core, which itself
// imports internal/check.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
)

// violationKeys extracts the sorted (property, description) set of a
// result — the part of the violation list the determinism contract
// promises, independent of which counterexample path each engine
// happened to capture first.
func violationKeys(res *check.Result) []string {
	keys := make([]string, len(res.Violations))
	for i, v := range res.Violations {
		keys[i] = v.Property + "\x00" + v.Desc
	}
	sort.Strings(keys)
	return keys
}

// resultDiff names the first Result field on which a and b differ,
// violation paths included, or returns "" when they agree. The visited
// table diagnostics are left out: slot placement depends on claim
// interleaving and is outside the determinism contract.
func resultDiff(a, b *check.Result) string {
	switch {
	case a.States != b.States:
		return fmt.Sprintf("States %d vs %d", a.States, b.States)
	case a.Transitions != b.Transitions:
		return fmt.Sprintf("Transitions %d vs %d", a.Transitions, b.Transitions)
	case a.MaxDepth != b.MaxDepth:
		return fmt.Sprintf("MaxDepth %d vs %d", a.MaxDepth, b.MaxDepth)
	case a.Truncated != b.Truncated:
		return fmt.Sprintf("Truncated %v vs %v", a.Truncated, b.Truncated)
	case a.Misrouted != b.Misrouted || a.Dropped != b.Dropped:
		return fmt.Sprintf("Misrouted/Dropped %d/%d vs %d/%d", a.Misrouted, a.Dropped, b.Misrouted, b.Dropped)
	case a.Omission != b.Omission:
		return fmt.Sprintf("Omission %g vs %g", a.Omission, b.Omission)
	case !reflect.DeepEqual(a.Covered, b.Covered):
		return fmt.Sprintf("Covered %v vs %v", a.Covered, b.Covered)
	case len(a.Violations) != len(b.Violations):
		return fmt.Sprintf("%d vs %d violations", len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		if !reflect.DeepEqual(a.Violations[i], b.Violations[i]) {
			return fmt.Sprintf("violation %d: %v vs %v\n%s\n%s", i, a.Violations[i], b.Violations[i],
				check.FormatCounterexample(a.Violations[i]), check.FormatCounterexample(b.Violations[i]))
		}
	}
	return ""
}

// sameFixpoint reports how r and want differ on what every engine
// exploring the same world agrees on: the state count, the violation
// set and the per-process spec coverage.
func sameFixpoint(t *testing.T, w *core.Scoped, r, want *check.Result) {
	t.Helper()
	if got, want := violationKeys(r), violationKeys(want); !reflect.DeepEqual(got, want) {
		t.Errorf("violation set mismatch:\n got %q\nwant %q", got, want)
	}
	if r.States != want.States {
		t.Errorf("states = %d, want %d", r.States, want.States)
	}
	if got, want := check.SpecCoverage(w.World, r), check.SpecCoverage(w.World, want); !reflect.DeepEqual(got, want) {
		t.Errorf("spec coverage mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestParallelDeterminism asserts the engine's determinism contract on
// every standard world. On the searched worlds, sequential DFS
// (workers=1) explores the same depth-bounded fixpoint as sequential
// BFS in another order, so the two agree on the states, the violation
// set, the spec coverage and the depth report; every run with more
// workers, DFS or BFS, is the level-synchronous search and equals the
// sequential BFS Result field for field, counterexample paths
// included. The full world is sampled by random walks, which agree
// across worker counts on the states, violation set and coverage. The
// multi-UE worlds also run under each reduction.
func TestParallelDeterminism(t *testing.T) {
	worlds := core.StandardWorlds(false)
	names := core.WorldNames()
	// The reductions change what the visited table keys on: canonical
	// encodings under symmetry, fingerprints under compaction, cluster
	// projections under POR.
	for _, r := range []struct {
		name, world       string
		por, sym, compact bool
	}{
		{"multiue+por", "multiue", true, false, false},
		{"multiue-shared+sym", "multiue-shared", false, true, false},
		{"multiue-shared+sym+compact", "multiue-shared", false, true, true},
	} {
		s := worlds[r.world]
		s.Options.POR, s.Options.Symmetry, s.Options.Compact = r.por, r.sym, r.compact
		worlds[r.name] = s
		names = append(names, r.name)
	}
	for _, name := range names {
		s := worlds[name]
		t.Run(name, func(t *testing.T) {
			opt := s.Options
			if opt.Strategy != check.RandomWalk {
				opt.Strategy = check.BFS
			}
			opt.Workers = 1
			base, err := core.Screen(s, opt)
			if err != nil {
				t.Fatalf("sequential %v: %v", opt.Strategy, err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					if s.Options.Strategy == check.RandomWalk {
						opt := s.Options
						opt.Workers = workers
						r, err := core.Screen(s, opt)
						if err != nil {
							t.Fatalf("walks with %d workers: %v", workers, err)
						}
						sameFixpoint(t, &s, r.Result, base.Result)
						return
					}
					if workers == 1 {
						opt := s.Options
						opt.Strategy, opt.Workers = check.DFS, 1
						r, err := core.Screen(s, opt)
						if err != nil {
							t.Fatalf("sequential DFS: %v", err)
						}
						sameFixpoint(t, &s, r.Result, base.Result)
						if r.Result.MaxDepth != base.Result.MaxDepth || r.Result.Truncated != base.Result.Truncated {
							t.Errorf("depth report %d/%v, want %d/%v", r.Result.MaxDepth, r.Result.Truncated,
								base.Result.MaxDepth, base.Result.Truncated)
						}
						return
					}
					// DFS takes the same engine as BFS past one worker;
					// one worker count shows the dispatch.
					strategies := []check.Strategy{check.BFS}
					if workers == 2 {
						strategies = append(strategies, check.DFS)
					}
					for _, strategy := range strategies {
						opt := s.Options
						opt.Strategy, opt.Workers = strategy, workers
						r, err := core.Screen(s, opt)
						if err != nil {
							t.Fatalf("%v with %d workers: %v", strategy, workers, err)
						}
						if d := resultDiff(r.Result, base.Result); d != "" {
							t.Errorf("%v with %d workers differs from sequential BFS: %s", strategy, workers, d)
						}
					}
				})
			}
		})
	}
}

// TestDepthReportOrderIndependent pins MaxDepth and Truncated to the
// visited table's final minimal depths. Sequential DFS reaches states
// of the shared-core 4-UE world at depth 48 before shorter paths turn
// up; every one of its 66,045 states lies within depth 36, so the
// search is complete and reports so under every strategy and worker
// count. NAS-timed S1 does hit its depth bound of 22.
func TestDepthReportOrderIndependent(t *testing.T) {
	if check.RaceEnabled {
		t.Skip("checks counts on 270,000 states; TestParallelDeterminism exercises the workers under the race detector")
	}
	shared := core.MultiUEWorldShared(4, false)
	timed, err := core.WithTiming(core.S1World(false), core.TimingNAS)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		s         core.Scoped
		sym       bool
		workers   []int
		states    int
		maxDepth  int
		truncated bool
	}{
		{"shared4-sym", shared, true, []int{1, 2, 4}, 66045, 36, false},
		// Once per engine: sequential DFS and the layered search.
		{"s1-timing", timed, false, []int{1}, 205768, 22, true},
	}
	for _, c := range cases {
		for _, strategy := range []check.Strategy{check.DFS, check.BFS} {
			for _, workers := range c.workers {
				opt := c.s.Options
				opt.Symmetry, opt.Strategy, opt.Workers = c.sym, strategy, workers
				r, err := check.Run(c.s.World, c.s.Props, c.s.Scenario, opt)
				if err != nil {
					t.Fatal(err)
				}
				if r.States != c.states || r.MaxDepth != c.maxDepth || r.Truncated != c.truncated {
					t.Errorf("%s %v workers=%d: states=%d MaxDepth=%d Truncated=%v, want %d/%d/%v",
						c.name, strategy, workers, r.States, r.MaxDepth, r.Truncated, c.states, c.maxDepth, c.truncated)
				}
			}
		}
	}
}

// TestStopAtFirstDeterminism: a StopAtFirst search ends at the first
// violating transition in breadth-first order whatever the worker
// count, so every Result field matches the sequential run.
func TestStopAtFirstDeterminism(t *testing.T) {
	for _, name := range []string{"s1", "s6", "multiue-shared"} {
		s := core.StandardWorlds(false)[name]
		opt := s.Options
		opt.Strategy, opt.StopAtFirst = check.BFS, true
		base, err := core.Screen(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Result.Violations) == 0 {
			t.Fatalf("%s: StopAtFirst run found no violation", name)
		}
		for _, workers := range []int{2, 8} {
			opt.Workers = workers
			r, err := core.Screen(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			if d := resultDiff(r.Result, base.Result); d != "" {
				t.Errorf("%s with %d workers differs from the sequential run: %s", name, workers, d)
			}
		}
	}
}

// TestParallelRunsAgreeWithEachOther re-runs the widest world twice at
// the same worker count and asserts the violation lists are identical
// entry-for-entry (canonical order makes repeated parallel runs
// reproducible, not merely set-equal).
func TestParallelRunsAgreeWithEachOther(t *testing.T) {
	s := core.StandardWorlds(false)["s6"]
	opt := s.Options
	opt.Workers = 4

	a, err := core.Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(violationKeys(a.Result), violationKeys(b.Result)) {
		t.Errorf("two parallel runs disagree:\n a=%q\n b=%q",
			violationKeys(a.Result), violationKeys(b.Result))
	}
	for i := range a.Result.Violations {
		va, vb := a.Result.Violations[i], b.Result.Violations[i]
		if va.Property != vb.Property || va.Desc != vb.Desc {
			t.Errorf("violation %d ordering differs: (%s,%s) vs (%s,%s)",
				i, va.Property, va.Desc, vb.Property, vb.Desc)
		}
	}
}

// TestCampaignParallelMatchesSequential runs the whole phase-1 sweep
// sequentially and with campaign parallelism and compares per-world
// outcomes.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	seq, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{Parallel: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Finding != par[i].Finding {
			t.Fatalf("result %d order differs: %s vs %s", i, seq[i].Finding, par[i].Finding)
		}
		if got, want := violationKeys(par[i].Result), violationKeys(seq[i].Result); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: violation set mismatch:\n got %q\nwant %q", seq[i].Finding, got, want)
		}
		if par[i].Result.States != seq[i].Result.States {
			t.Errorf("%s: states = %d, want %d", seq[i].Finding, par[i].Result.States, seq[i].Result.States)
		}
	}
}

// TestCampaignBudgetTruncates shares a tiny state budget across the
// sweep and asserts the pool is exhausted and every world truncates
// rather than overshooting it.
func TestCampaignBudgetTruncates(t *testing.T) {
	results, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{StateBudget: 50})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range results {
		total += r.Result.States
	}
	if total > 50 {
		t.Errorf("campaign explored %d states, budget was 50", total)
	}
	truncated := 0
	for _, r := range results {
		if r.Result.Truncated {
			truncated++
		}
	}
	if truncated == 0 {
		t.Error("no world reported truncation under a 50-state budget")
	}
}

// TestCampaignCancelOnViolation asserts the first-violation switch
// stops the campaign early: at least one later world must be cut short
// (the scoped defective worlds all violate, so without cancellation
// every result would be complete).
func TestCampaignCancelOnViolation(t *testing.T) {
	results, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{CancelOnViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	violated := false
	for _, r := range results {
		if r.Violated() {
			violated = true
		}
	}
	if !violated {
		t.Fatal("campaign found no violation at all")
	}
	// The first world already violates, so everything after it must
	// have been cancelled before completing its exploration.
	full, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for i := range results {
		if results[i].Result.States < full[i].Result.States {
			saved++
		}
	}
	if saved == 0 {
		t.Error("CancelOnViolation explored every world in full")
	}
}
