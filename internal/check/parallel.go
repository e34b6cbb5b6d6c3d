package check

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cnetverifier/internal/model"
)

// This file implements the walk-splitting engine of RandomWalk with
// Workers > 1. Parallel DFS and BFS run the level-synchronous search of
// layer.go.
//
// Random walks derive their RNG stream from (Seed, walk index), not
// from a shared stream, so the sampled schedule set — and with it the
// violation set — is the same however walks land on workers
// (TestParallelDeterminism asserts it on the full world). Work tallies (Transitions, Covered counts) count every
// walk once whatever its worker; the violation list is canonically
// sorted and every counterexample is re-verified with Replay before
// the result is returned.

// lockedScenario serializes Events calls so stochastic scenarios (the
// random sampler carries RNG state) are safe under concurrent workers.
// Deterministic scenarios — required for search strategies anyway —
// are unaffected beyond the mutex.
type lockedScenario struct {
	mu   sync.Mutex
	base Scenario
}

func (l *lockedScenario) Events(w *model.World) []model.EnvEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.Events(w)
}

func runParallelWalk(w0 *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	visited := newVisitedSet(opt)
	if _, _, err := markVisited(visited, w0, 0, nil); err != nil {
		return nil, err
	}
	locked := &lockedScenario{base: sc}

	var nextWalk atomic.Int64
	var stop atomic.Bool
	results := make([]*Result, opt.Workers)
	errs := make([]error, opt.Workers)
	var wg sync.WaitGroup
	for id := 0; id < opt.Workers; id++ {
		results[id] = &Result{Covered: make(map[string]int)}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var buf []byte
			var wk walker
			seen := make(map[violKey]struct{})
			for !stop.Load() && !opt.Cancel.Cancelled() {
				walk := int(nextWalk.Add(1)) - 1
				if walk >= opt.Walks {
					return
				}
				halt, err := oneWalk(w0, &wk, props, locked, opt, walk, visited, &buf, seen, results[id])
				if err != nil {
					errs[id] = err
					stop.Store(true)
					return
				}
				if halt {
					stop.Store(true)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Covered: make(map[string]int)}
	coveredPer := make([]map[string]int, 0, len(results))
	for _, r := range results {
		res.Transitions += r.Transitions
		res.Misrouted += r.Misrouted
		res.Dropped += r.Dropped
		if r.MaxDepth > res.MaxDepth {
			res.MaxDepth = r.MaxDepth
		}
		res.Truncated = res.Truncated || r.Truncated
		res.Violations = append(res.Violations, r.Violations...)
		coveredPer = append(coveredPer, r.Covered)
	}
	if opt.Cancel.Cancelled() {
		res.Truncated = true
	}
	res.Covered = mergeCovered(coveredPer)
	finishVisited(res, visited)
	// Workers deduplicate violations only against their own walks;
	// collapse cross-worker duplicates to the canonically smallest
	// counterexample per (property, description).
	res.Violations = dedupeViolations(res.Violations)
	if err := reverify(w0, props, res.Violations); err != nil {
		return nil, err
	}
	return res, nil
}

func mergeCovered(per []map[string]int) map[string]int {
	out := make(map[string]int)
	for _, m := range per {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

func dedupeViolations(vs []Violation) []Violation {
	sortViolations(vs)
	out := vs[:0]
	for _, v := range vs {
		if len(out) > 0 && out[len(out)-1].Property == v.Property && out[len(out)-1].Desc == v.Desc {
			continue
		}
		out = append(out, v)
	}
	return out
}

// reverify replays every counterexample against the initial world and
// confirms the violated property reports the same description on the
// replayed state. Parallel workers hand over paths across goroutines;
// this is the engine's proof to the caller that no captured path was
// corrupted by frontier reuse and that each violation is reproducible
// before it leaves the package (mirroring the paper's screening →
// validation hand-off, §3.2.3).
func reverify(w0 *model.World, props []Property, vs []Violation) error {
	// Several monitors may share one property name (per-instance
	// monitors of a multi-UE world, e.g. props.DataServiceOKIn); a
	// violation reproduces when any monitor of its name reports the
	// recorded description on the replayed state.
	byName := make(map[string][]Property, len(props))
	for _, p := range props {
		byName[p.Name()] = append(byName[p.Name()], p)
	}
	for _, v := range vs {
		end, err := Replay(w0, v.Path)
		if err != nil {
			return fmt.Errorf("check: counterexample for %s failed replay re-verification: %w", v.Property, err)
		}
		ps := byName[v.Property]
		if len(ps) == 0 {
			return fmt.Errorf("check: violation of unknown property %q", v.Property)
		}
		var last model.Step
		if len(v.Path) > 0 {
			last = v.Path[len(v.Path)-1]
		}
		reproduced := false
		for _, p := range ps {
			if p.Check(end, last) == v.Desc {
				reproduced = true
				break
			}
		}
		if !reproduced {
			return fmt.Errorf("check: counterexample for %s does not reproduce on replay: no monitor of that name reports %q", v.Property, v.Desc)
		}
	}
	return nil
}
