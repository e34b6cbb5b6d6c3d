package main

import (
	"fmt"
	"slices"
	"sort"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/fuzz"
)

// workload is one named benchmark input. build is the set-up the
// setup_s metric times: it builds the scoped world, applies the timing
// profile and, for fuzzing, the event pool. It must be a pure function
// of the seed, so that the same seed always gives the same inputs.
type workload struct {
	name  string
	build func(seed int64) (*instance, error)
}

// instance is a built workload: the scoped world plus the engine
// configuration. A non-nil fuzz selects fuzz.Fuzz, otherwise check.Run
// screens with opt.
type instance struct {
	scoped core.Scoped
	opt    check.Options
	fuzz   *fuzz.Options
}

// fuzzBudget is the transition budget of one fuzz-full campaign, about
// 0.4 s at 1 worker on a 2-core machine. The cost of a campaign depends
// on its seed, and heavily: at 200,000 transitions it ranges from 3.5 s
// to 6.8 s and from 58 MB to 136 MB. So each fuzz-full run is a campaign
// under its own seed, derived from the workload seed (runSeed), and the
// benchmark reports the median over the many short campaigns that fit in
// the measurement time.
const fuzzBudget = 25000

// fuzzRefWorkers is the worker count of the reference campaign a fuzzing
// run is checked against. It differs from the measured run's single
// worker, so the check also covers the parallel fuzzer.
const fuzzRefWorkers = 2

// workloads lists the benchmark's workloads. The three without the
// smoke- prefix are the ones BENCHMARK.json names; predictions.json
// records why each was chosen. The smoke- workloads are small versions
// of the same configurations for the package test and quick checks.
var workloads = []workload{
	{"screen-s1-nas", func(int64) (*instance, error) {
		s, err := core.WithTiming(core.S1World(false), core.TimingNAS)
		if err != nil {
			return nil, err
		}
		opt := s.Options
		opt.Workers = 1
		return &instance{scoped: s, opt: opt}, nil
	}},
	{"screen-shared4-sym", func(int64) (*instance, error) {
		return screenSym(core.MultiUEWorldShared(4, false), 2), nil
	}},
	{"fuzz-full", func(seed int64) (*instance, error) {
		return fuzzWorld(core.FullWorld(core.FullConfig{}), seed, fuzzBudget, 1), nil
	}},
	{"smoke-screen-s1", func(int64) (*instance, error) {
		s := core.S1World(false)
		return &instance{scoped: s, opt: s.Options}, nil
	}},
	{"smoke-shared2-sym", func(int64) (*instance, error) {
		return screenSym(core.MultiUEWorldShared(2, false), 2), nil
	}},
	{"smoke-fuzz-full", func(seed int64) (*instance, error) {
		return fuzzWorld(core.FullWorld(core.FullConfig{}), seed, 2000, 1), nil
	}},
}

func screenSym(s core.Scoped, workers int) *instance {
	opt := s.Options
	opt.Symmetry = true
	opt.Workers = workers
	return &instance{scoped: s, opt: opt}
}

func fuzzWorld(s core.Scoped, seed int64, budget, workers int) *instance {
	return &instance{scoped: s, fuzz: &fuzz.Options{
		Budget:    budget,
		Workers:   workers,
		Seed:      seed,
		Pool:      s.Scenario.Events(s.World),
		TimerPool: s.World.TimerEvents(),
	}}
}

// runSeed derives the seed of a workload's i-th run from the workload
// seed (the SplitMix64 finalizer); it is never 0, which fuzz would
// replace by 1. Screening workloads ignore it.
func runSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z^(z>>31)) | 1
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is what one run produced. verdict holds the part a run is
// judged by; the other fields feed the per-layer metrics.
type outcome struct {
	Verdict     verdict `json:"verdict"`
	Transitions int     `json:"transitions"`
	Schedules   int     `json:"schedules"`
	Steps       int     `json:"steps"`
	Kept        int     `json:"kept"`
	visited     *check.VisitedStats
}

// verdict is the result a run must reproduce: the state count of a
// screening run, the coverage digest of a fuzzing run, and the sorted
// (property, description) violation set of either.
type verdict struct {
	States     int      `json:"states,omitempty"`
	Digest     string   `json:"coverage_digest,omitempty"`
	Violations []string `json:"violations"`
}

func (v verdict) diff(want verdict) error {
	switch {
	case v.States != want.States:
		return fmt.Errorf("states %d, want %d", v.States, want.States)
	case v.Digest != want.Digest:
		return fmt.Errorf("coverage digest %s, want %s", v.Digest, want.Digest)
	case !slices.Equal(v.Violations, want.Violations):
		return fmt.Errorf("violation set %q, want %q", v.Violations, want.Violations)
	}
	return nil
}

func violationSet(vs []check.Violation) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, v.Property+"\t"+v.Desc)
	}
	sort.Strings(out)
	return out
}

// workers is the number of goroutines the workload's engine explores
// with.
func (in *instance) workers() int {
	n := in.opt.Workers
	if in.fuzz != nil {
		n = in.fuzz.Workers
	}
	return max(n, 1)
}

// run executes the workload's engine once with the given properties and
// scenario (the benchmark substitutes timing decorators for a traced
// run).
func (in *instance) run(props []check.Property, sc check.Scenario) (outcome, error) {
	if in.fuzz != nil {
		r, err := fuzz.Fuzz(in.scoped.World, props, *in.fuzz)
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			Verdict:   verdict{Digest: r.CoverageDigest, Violations: violationSet(r.Violations)},
			Schedules: r.Schedules,
			Steps:     r.Steps,
			Kept:      r.NewCoverageInputs,
		}, nil
	}
	r, err := check.Run(in.scoped.World, props, sc, in.opt)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		Verdict:     verdict{States: r.States, Violations: violationSet(r.Violations)},
		Transitions: r.Transitions,
		visited:     r.Visited,
	}, nil
}

// reference returns the verdict a fuzzing run must reproduce: that of an
// untimed fuzzRefWorkers-worker campaign with the same seed. The
// fuzzer's determinism contract makes its result independent of the
// worker count. (Screening verdicts are pinned in expected.json instead.)
func (in *instance) reference() (verdict, error) {
	ref := *in
	opt := *in.fuzz
	opt.Workers = fuzzRefWorkers
	ref.fuzz = &opt
	out, err := ref.run(in.scoped.Props, in.scoped.Scenario)
	if err != nil {
		return verdict{}, fmt.Errorf("reference run: %w", err)
	}
	return out.Verdict, nil
}
