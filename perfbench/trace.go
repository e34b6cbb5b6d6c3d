package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"cnetverifier/internal/check"
	"cnetverifier/internal/model"
)

// clock accumulates one layer's call count and busy time. The scenario
// and property decorators share one clock per layer across the engine's
// workers, so both fields are atomic.
type clock struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *clock) since(t0 time.Time) {
	c.calls.Add(1)
	c.ns.Add(int64(time.Since(t0)))
}

// timedScenario times every Events call of the wrapped scenario.
type timedScenario struct {
	inner check.Scenario
	clk   *clock
}

func (s timedScenario) Events(w *model.World) []model.EnvEvent {
	t0 := time.Now()
	evs := s.inner.Events(w)
	s.clk.since(t0)
	return evs
}

// timedProperty times every Check call of the wrapped property.
type timedProperty struct {
	check.Property
	clk *clock
}

func (p timedProperty) Check(w *model.World, last model.Step) string {
	t0 := time.Now()
	desc := p.Property.Check(w, last)
	p.clk.since(t0)
	return desc
}

func timedProps(props []check.Property, clk *clock) []check.Property {
	out := make([]check.Property, len(props))
	for i, p := range props {
		out[i] = timedProperty{p, clk}
	}
	return out
}

// tally is a sequential call count and busy time, for the mirrors.
type tally struct{ calls, ns int64 }

func (t *tally) since(t0 time.Time) {
	t.calls++
	t.ns += int64(time.Since(t0))
}

// modelTally is the model layer's breakdown, one tally per World call
// the engines make per transition.
type modelTally struct {
	hash, apply, restore, save, steps tally
}

func (m *modelTally) metrics(out map[string]metric) {
	for _, c := range []struct {
		name string
		t    tally
	}{{"hash", m.hash}, {"apply", m.apply}, {"restore", m.restore}, {"save", m.save}, {"steps", m.steps}} {
		out["model."+c.name+"_ns"] = metric{float64(c.t.ns), "ns"}
		out["model."+c.name+"_calls"] = metric{float64(c.t.calls), "count"}
	}
}

// dfsMirror re-implements the sequential DFS loop of check.Run through
// the public model.World methods only, timing each call. It explores in
// the same order with the same min-depth re-expansion rule, so its
// state and transition counts must equal check.Run's at 1 worker; the
// benchmark refuses to report its timings when they do not. Its visited
// set is a map from the (canonical, under symmetry) state encoding to
// the shallowest depth the state was reached at.
type dfsMirror struct {
	w           *model.World
	props       []check.Property
	sc          check.Scenario
	canon       bool
	maxDepth    int
	maxStates   int
	seen        map[string]int
	buf         []byte
	transitions int
	t           modelTally
}

type mirrorFrame struct {
	undo   model.Undo
	steps  []model.Step
	expand []model.Step
}

func runDFSMirror(in *instance) (*dfsMirror, error) {
	opt := in.opt
	m := &dfsMirror{
		w:         in.scoped.World.Clone(),
		props:     in.scoped.Props,
		sc:        in.scoped.Scenario,
		canon:     opt.Symmetry,
		maxDepth:  opt.MaxDepth,
		maxStates: opt.MaxStates,
		seen:      make(map[string]int),
	}
	if m.maxDepth == 0 {
		m.maxDepth = 64
	}
	if m.maxStates == 0 {
		m.maxStates = 1 << 20
	}
	m.mark(0)
	var frames []*mirrorFrame
	var rec func(depth int) error
	rec = func(depth int) error {
		if depth >= m.maxDepth {
			return nil
		}
		for len(frames) <= depth {
			frames = append(frames, &mirrorFrame{})
		}
		f := frames[depth]
		w := m.w
		env := m.sc.Events(w)
		t0 := time.Now()
		f.steps = w.StepsAppend(f.steps[:0], env)
		m.t.steps.since(t0)
		t0 = time.Now()
		w.Save(&f.undo)
		m.t.save.since(t0)
		f.expand = f.expand[:0]
		for _, s := range f.steps {
			t0 = time.Now()
			applied, err := w.Apply(s)
			m.t.apply.since(t0)
			if err != nil {
				return fmt.Errorf("mirror: apply %v: %w", s, err)
			}
			m.transitions++
			for _, p := range m.props {
				p.Check(w, applied)
			}
			expand := m.mark(depth + 1)
			t0 = time.Now()
			w.Restore(&f.undo)
			m.t.restore.since(t0)
			if expand {
				f.expand = append(f.expand, applied)
			}
		}
		for i := len(f.expand) - 1; i >= 0; i-- {
			t0 = time.Now()
			_, err := w.Apply(f.expand[i])
			m.t.apply.since(t0)
			if err != nil {
				return fmt.Errorf("mirror: apply %v: %w", f.expand[i], err)
			}
			err = rec(depth + 1)
			t0 = time.Now()
			w.Restore(&f.undo)
			m.t.restore.since(t0)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return m, nil
}

// mark records the current state at depth and reports whether to expand
// it: it is new, or reached strictly shallower than before.
func (m *dfsMirror) mark(depth int) bool {
	t0 := time.Now()
	if m.canon {
		_, m.buf = m.w.AppendCanonicalHash(m.buf)
	} else {
		_, m.buf = m.w.AppendHash(m.buf)
	}
	m.t.hash.since(t0)
	d, ok := m.seen[string(m.buf)]
	switch {
	case !ok && len(m.seen) >= m.maxStates:
		return false
	case !ok || depth < d:
		m.seen[string(m.buf)] = depth
		return true
	}
	return false
}

// runExecMirror re-implements the fuzzer's schedule executor through
// public model.World methods, timing each call: it runs uniformly
// random schedules from the workload's event pool (inject one event,
// then drain up to 8 queued messages or timer expiries) until it has
// applied as many transitions as the fuzzing run did. The fuzzer never
// hashes, saves or restores a world, so those tallies stay zero.
func runExecMirror(in *instance, steps int) (*modelTally, error) {
	const maxEvents, drain = 12, 8
	opt := in.fuzz
	rng := rand.New(rand.NewSource(opt.Seed))
	w := &model.World{}
	var t modelTally
	var buf []model.Step
	applied := 0
	apply := func() error {
		if len(buf) == 0 {
			return nil
		}
		s := buf[rng.Intn(len(buf))]
		t0 := time.Now()
		a, err := w.Apply(s)
		t.apply.since(t0)
		if err != nil {
			return fmt.Errorf("mirror: apply %v: %w", s, err)
		}
		applied++
		for _, p := range in.scoped.Props {
			p.Check(w, a)
		}
		return nil
	}
	for applied < steps {
		in.scoped.World.CloneInto(w)
		n := 1 + rng.Intn(maxEvents)
		for i := 0; i < n; i++ {
			e := opt.Pool[rng.Intn(len(opt.Pool))]
			t0 := time.Now()
			buf = w.StepsEnvAppend(buf[:0], []model.EnvEvent{e})
			t.steps.since(t0)
			if err := apply(); err != nil {
				return nil, err
			}
			for d := 0; d < drain; d++ {
				t0 := time.Now()
				buf = w.StepsTimerAppend(w.StepsQueueAppend(buf[:0]))
				t.steps.since(t0)
				if len(buf) == 0 {
					break
				}
				if err := apply(); err != nil {
					return nil, err
				}
			}
		}
	}
	return &t, nil
}
