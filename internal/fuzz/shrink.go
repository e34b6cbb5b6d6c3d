package fuzz

import (
	"fmt"
	"hash/fnv"
	"io"

	"cnetverifier/internal/check"
	"cnetverifier/internal/model"
)

// This file implements counterexample shrinking: ddmin (Zeller's
// delta debugging) over the event schedule of a violation trace, with
// every candidate re-verified by replay against the initial world.
//
// Candidates are replayed *anchored*: each remaining step is re-matched
// against the current world by structural identity (step kind, process,
// message kind and cause, fired transition index) instead of by its
// recorded queue position — removing an earlier step shifts queue
// positions, but the surviving steps still name the same protocol
// actions. A candidate passes when the replay reaches the original
// (property, description) violation; it fails when a step no longer
// matches any enabled action or the violation is never reached. The
// passing replay yields a concrete step sequence freshly enumerated
// from the world, so the final minimal trace replays under the strict
// check.Replay with no tolerance at all.

// ShrinkOptions configures Shrink.
type ShrinkOptions struct {
	// MaxTests bounds the number of anchored replays (0 = unlimited).
	// Shrinking a trace of n steps needs O(n²) replays worst-case.
	MaxTests int
}

// ShrinkResult is a minimized counterexample.
type ShrinkResult struct {
	// Property and Desc identify the violation (unchanged by
	// shrinking: a candidate only passes if it reaches the same pair).
	Property string `json:"property"`
	Desc     string `json:"desc"`
	// OriginalSteps and Steps count the trace length before and after.
	OriginalSteps int `json:"original_steps"`
	Steps         int `json:"steps"`
	// Tests counts the anchored replays performed.
	Tests int `json:"tests"`
	// TimeShifts counts the successful time-axis normalization moves:
	// each one bubbled a timer-expiry step one position earlier past a
	// non-timer step while preserving the violation. Zero for untimed
	// traces (the pass is skipped entirely).
	TimeShifts int `json:"time_shifts,omitempty"`
	// Path is the minimal trace: removing any single step breaks the
	// replay (1-minimality, the ddmin guarantee).
	Path []model.Step `json:"-"`
	// Digest is the stability digest: an FNV-64a hash over the rendered
	// minimal steps and the rendering (model.World.String) of the state
	// the strict replay reaches. Two shrinks of equivalent violations
	// landing on the same digest reached identical final states via the
	// same action sequence.
	Digest string `json:"digest"`
}

// AnchoredReplay replays candidate steps against a copy of w0,
// re-matching each step structurally (see the file comment). It
// returns the concrete applied step sequence up to and including the
// step at which the wanted (property, desc) violation appeared, and
// whether it appeared at all. The returned path is strictly
// replayable: it was enumerated step by step from w0.
func AnchoredReplay(w0 *model.World, props []check.Property, property, desc string, candidate []model.Step) ([]model.Step, bool) {
	w := w0.Clone()
	var buf []model.Step
	concrete := make([]model.Step, 0, len(candidate))
	for _, want := range candidate {
		s, ok := matchStep(w, &buf, want)
		if !ok {
			return nil, false
		}
		applied, err := w.Apply(s)
		if err != nil {
			return nil, false
		}
		concrete = append(concrete, applied)
		for _, p := range props {
			if p.Name() == property && p.Check(w, applied) == desc {
				return concrete, true
			}
		}
	}
	return nil, false
}

// matchStep finds the enabled step of w structurally identical to
// want: same kind, process, message kind/cause, and (for deliveries
// and injections) the same spec transition. The first match in
// enumeration order wins, keeping the anchoring deterministic.
func matchStep(w *model.World, buf *[]model.Step, want model.Step) (model.Step, bool) {
	if want.Kind == model.StepEnv {
		*buf = w.StepsEnvAppend((*buf)[:0], []model.EnvEvent{{Proc: want.Proc, Msg: want.Msg}})
		for _, s := range *buf {
			if s.TransIdx == want.TransIdx {
				return s, true
			}
		}
		return model.Step{}, false
	}
	if want.Kind == model.StepTimer {
		// Timer expiries anchor on (process, timer name, transition):
		// removing earlier steps shifts the virtual clock, but the
		// surviving expiry still names the same timer firing the same
		// spec transition.
		*buf = w.StepsTimerAppend((*buf)[:0])
		for _, s := range *buf {
			if s.Proc == want.Proc && s.Msg.From == want.Msg.From && s.TransIdx == want.TransIdx {
				return s, true
			}
		}
		return model.Step{}, false
	}
	*buf = w.StepsQueueAppend((*buf)[:0])
	for _, s := range *buf {
		if s.Kind != want.Kind || s.Proc != want.Proc {
			continue
		}
		if s.Msg.Kind != want.Msg.Kind || s.Msg.Cause != want.Msg.Cause {
			continue
		}
		if s.Kind == model.StepDeliver && s.TransIdx != want.TransIdx {
			continue
		}
		return s, true
	}
	return model.Step{}, false
}

// Shrink reduces a violation's trace to a 1-minimal one: removing any
// single remaining step makes the violation unreachable under anchored
// replay. The input violation may come from the fuzzer or from a
// screening run (check.Result); its path must reproduce on w0.
func Shrink(w0 *model.World, props []check.Property, v check.Violation, opt ShrinkOptions) (*ShrinkResult, error) {
	res := &ShrinkResult{Property: v.Property, Desc: v.Desc, OriginalSteps: len(v.Path)}

	test := func(cand []model.Step) ([]model.Step, bool) {
		res.Tests++
		return AnchoredReplay(w0, props, v.Property, v.Desc, cand)
	}
	overBudget := func() bool { return opt.MaxTests > 0 && res.Tests >= opt.MaxTests }

	cur, ok := test(v.Path)
	if !ok {
		return nil, fmt.Errorf("fuzz: violation of %s does not reproduce on anchored replay", v.Property)
	}

	// ddmin over cur. Granularity n doubles on failure, resets on a
	// successful subset, decrements on a successful complement; the
	// loop ends 1-minimal when every single-step removal (complements
	// at n == len) has failed.
	ddmin := func() {
		n := 2
		for len(cur) >= 2 && !overBudget() {
			reduced := false
			for i := 0; i < n && !overBudget(); i++ {
				lo, hi := i*len(cur)/n, (i+1)*len(cur)/n
				if concrete, ok := test(cur[lo:hi]); ok {
					cur, n, reduced = concrete, 2, true
					break
				}
			}
			if !reduced && n > 2 {
				comp := make([]model.Step, 0, len(cur))
				for i := 0; i < n && !overBudget(); i++ {
					lo, hi := i*len(cur)/n, (i+1)*len(cur)/n
					comp = append(append(comp[:0], cur[:lo]...), cur[hi:]...)
					if concrete, ok := test(comp); ok {
						cur, reduced = concrete, true
						if n = n - 1; n < 2 {
							n = 2
						}
						break
					}
				}
			}
			if reduced {
				continue
			}
			if n >= len(cur) {
				break
			}
			if n *= 2; n > len(cur) {
				n = len(cur)
			}
		}
	}

	// Time-axis normalization (timed traces only): bubble each timer
	// expiry as early as the violation allows by swapping it with the
	// non-timer step before it and keeping the swap when the anchored
	// replay still reproduces. Each kept swap removes one
	// expiry-vs-delivery inversion, so the pass terminates at a
	// canonical "expiries first where order is irrelevant" form — the
	// second shrinking dimension, orthogonal to ddmin's event axis.
	// Returns whether any swap was kept; a kept swap can unlock further
	// event-axis removals, so the caller re-runs ddmin to a joint
	// fixpoint.
	bubble := func() bool {
		timed := false
		for _, s := range cur {
			if s.Kind == model.StepTimer {
				timed = true
				break
			}
		}
		if !timed {
			return false
		}
		shifted := false
		for changed := true; changed && !overBudget(); {
			changed = false
			for i := 1; i < len(cur) && !overBudget(); i++ {
				if cur[i].Kind != model.StepTimer || cur[i-1].Kind == model.StepTimer {
					continue
				}
				cand := append([]model.Step(nil), cur...)
				cand[i-1], cand[i] = cand[i], cand[i-1]
				if concrete, ok := test(cand); ok {
					cur = concrete
					res.TimeShifts++
					shifted, changed = true, true
				}
			}
		}
		return shifted
	}

	ddmin()
	for bubble() && !overBudget() {
		ddmin()
	}

	// Strict re-verification: the minimal path must replay exactly
	// (check.Replay, no anchoring) and reproduce the description.
	end, err := check.Replay(w0, cur)
	if err != nil {
		return nil, fmt.Errorf("fuzz: minimal trace failed strict replay: %w", err)
	}
	reproduced := false
	last := cur[len(cur)-1]
	for _, p := range props {
		if p.Name() == v.Property && p.Check(end, last) == v.Desc {
			reproduced = true
			break
		}
	}
	if !reproduced {
		return nil, fmt.Errorf("fuzz: minimal trace does not reproduce %s on strict replay", v.Property)
	}

	res.Steps = len(cur)
	res.Path = cur
	res.Digest = TraceDigest(cur, end)
	return res, nil
}

// VerifyMinimal checks 1-minimality: removing any single step of the
// path must break the anchored replay (either a step stops matching or
// the violation is never reached). It returns an error naming the
// first removable step.
func VerifyMinimal(w0 *model.World, props []check.Property, property, desc string, path []model.Step) error {
	if len(path) == 0 {
		return nil
	}
	cand := make([]model.Step, 0, len(path)-1)
	for i := range path {
		cand = append(append(cand[:0], path[:i]...), path[i+1:]...)
		if _, ok := AnchoredReplay(w0, props, property, desc, cand); ok {
			return fmt.Errorf("fuzz: trace not minimal: still violates %s without step %d (%v)", property, i+1, path[i])
		}
	}
	return nil
}

// TraceDigest hashes the steps and the rendered final state — the
// stability digest stored with every minimized trace. The golden corpus
// test recomputes it from a strict replay to detect silent drift in
// either the steps or the state they reach. Steps are hashed in their
// codec rendering (encodeStep), not Step.String(): the digest must be
// identical whether computed on freshly applied steps (Label filled by
// Apply) or on steps decoded back from a corpus file (Label absent).
// The state is hashed in its readable rendering, not its checker
// encoding, so the digest survives changes to the encoding.
func TraceDigest(path []model.Step, end *model.World) string {
	h := fnv.New64a()
	for _, s := range path {
		io.WriteString(h, encodeStep(s))
		io.WriteString(h, "\n")
	}
	io.WriteString(h, end.String())
	return fmt.Sprintf("%016x", h.Sum64())
}
