package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cnetverifier/internal/lint"
)

// Each measured run executes in a fresh child process, so its peak
// resident memory and CPU time belong to that run alone and never to
// earlier runs or to the parent's set-up.

// childReport is what a child prints as its single line of output.
type childReport struct {
	VerdictS  float64           `json:"verdict_s"`
	CPUS      float64           `json:"cpu_s"`
	PeakRSSMB float64           `json:"peak_rss_mb"`
	Outcome   outcome           `json:"outcome"`
	Layers    map[string]metric `json:"layers,omitempty"`
	// Reference is the verdict of a fuzzing run's reference campaign,
	// run untimed after the measured one.
	Reference *verdict `json:"reference,omitempty"`
	// MirrorErr explains why the model layer is missing from Layers.
	MirrorErr string `json:"mirror_error,omitempty"`
}

// spawn runs one measurement in a child process of the executable exe
// and waits for it to exit.
func spawn(exe, name string, seed int64, traced bool) (childReport, error) {
	args := []string{"child", "-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	var rep childReport
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("child run of %s: %w", name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("child run of %s: bad report: %w", name, err)
	}
	return rep, nil
}

// childMain is the child side of spawn: build the workload, run it once
// and print a childReport.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	traced := fs.Bool("trace", false, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	in, err := w.build(*seed)
	if err != nil {
		return err
	}
	// The run gets as many Ps as its engine has workers, so the garbage
	// collector shares the engine's cores instead of taking idle ones,
	// whose availability on a shared host varies from run to run.
	procs := runtime.GOMAXPROCS(in.workers())
	var rep childReport
	if *traced {
		rep, err = tracedRun(in)
	} else {
		rep, err = timedRun(in)
	}
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	if in.fuzz != nil {
		ref, err := in.reference()
		if err != nil {
			return err
		}
		rep.Reference = &ref
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// timedRun measures one untraced run: wall time from engine entry to
// result, user+system CPU time, and the peak resident set, whose
// high-water mark is reset once set-up is done.
func timedRun(in *instance) (childReport, error) {
	runtime.GC()
	resetPeakRSS()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out, err := in.run(in.scoped.Props, in.scoped.Scenario)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	if err != nil {
		return childReport{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return childReport{}, err
	}
	return childReport{VerdictS: wall, CPUS: cpu, PeakRSSMB: rss, Outcome: out}, nil
}

// tracedRun runs the engine once with the scenario and every property
// wrapped in timing decorators, then times the lint pre-screen and runs
// the model mirror, and returns the per-layer metrics.
func tracedRun(in *instance) (childReport, error) {
	var scClk, propClk clock
	props := timedProps(in.scoped.Props, &propClk)
	sc := timedScenario{in.scoped.Scenario, &scClk}
	runtime.GC()
	rt0 := readRuntime()
	t0 := time.Now()
	out, err := in.run(props, sc)
	wall := time.Since(t0).Seconds()
	rt1 := readRuntime()
	if err != nil {
		return childReport{}, err
	}
	ms := map[string]metric{}
	for i, rm := range runtimeMetrics {
		ms[rm.name] = metric{rt1[i] - rt0[i], rm.unit}
	}
	scS := float64(scClk.ns.Load()) / 1e9
	propS := float64(propClk.ns.Load()) / 1e9
	ms["scenario.events_calls"] = metric{float64(scClk.calls.Load()), "count"}
	ms["scenario.events_self_s"] = metric{scS, "s"}
	ms["props.check_calls"] = metric{float64(propClk.calls.Load()), "count"}
	ms["props.check_self_s"] = metric{propS, "s"}

	states := float64(out.Verdict.States)
	ms["check.states"] = metric{states, "count"}
	ms["check.transitions"] = metric{float64(out.Transitions), "count"}
	ms["check.transitions_per_state"] = metric{ratio(float64(out.Transitions), states), "ratio"}
	var arena, grows, probe float64
	if v := out.visited; v != nil {
		arena, grows, probe = ratio(float64(v.ArenaBytes), states), float64(v.Grows), float64(v.MaxProbe)
	}
	ms["check.arena_bytes_per_state"] = metric{arena, "B/state"}
	ms["check.table_grows"] = metric{grows, "count"}
	ms["check.max_probe"] = metric{probe, "slots"}
	ms["fuzz.schedules"] = metric{float64(out.Schedules), "count"}
	ms["fuzz.kept_per_schedule"] = metric{ratio(float64(out.Kept), float64(out.Schedules)), "ratio"}
	if in.fuzz == nil {
		ms["check.states_per_s"] = metric{states / wall, "1/s"}
		ms["check.engine_self_s"] = metric{wall - scS - propS, "s"}
		ms["fuzz.steps_per_s"] = metric{0, "1/s"}
	} else {
		ms["check.states_per_s"] = metric{0, "1/s"}
		ms["check.engine_self_s"] = metric{0, "s"}
		ms["fuzz.steps_per_s"] = metric{float64(out.Steps) / wall, "1/s"}
	}
	ms["lint.prescreen_s"] = metric{lintSeconds(in), "s"}

	rep := childReport{VerdictS: wall, Outcome: out, Layers: ms}
	tally, err := mirror(in, out)
	if err != nil {
		rep.MirrorErr = err.Error()
	} else {
		tally.metrics(ms)
	}
	return rep, nil
}

// mirror runs the workload's model mirror and checks it against the
// engine's own counts: the DFS mirror must reproduce the state count,
// and at 1 worker the transition count, of check.Run.
func mirror(in *instance, out outcome) (*modelTally, error) {
	if in.fuzz != nil {
		return runExecMirror(in, out.Steps)
	}
	m, err := runDFSMirror(in)
	if err != nil {
		return nil, err
	}
	if len(m.seen) != out.Verdict.States {
		return nil, fmt.Errorf("mirror reached %d states, check.Run %d", len(m.seen), out.Verdict.States)
	}
	if in.opt.Workers <= 1 && m.transitions != out.Transitions {
		return nil, fmt.Errorf("mirror applied %d transitions, check.Run %d", m.transitions, out.Transitions)
	}
	return &m.t, nil
}

// lintSeconds is the median of five timings of the structural lint that
// check.Run runs before exploring, on the workload's initial world.
func lintSeconds(in *instance) float64 {
	var hints []lint.EnvHint
	for _, e := range in.scoped.Scenario.Events(in.scoped.World) {
		hints = append(hints, lint.EnvHint{Proc: e.Proc, Kind: uint16(e.Msg.Kind)})
	}
	opt := lint.Options{Env: hints, Suppress: in.opt.LintSuppress}
	ts := make([]float64, 5)
	for i := range ts {
		t0 := time.Now()
		lint.World(in.scoped.World, opt)
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeMetrics maps runtime/metrics counters to the benchmark's
// runtime.* metrics, reported as their change over the traced run.
var runtimeMetrics = []struct{ key, name, unit string }{
	{"/gc/heap/allocs:bytes", "runtime.alloc_bytes", "B"},
	{"/gc/heap/allocs:objects", "runtime.mallocs", "count"},
	{"/cpu/classes/gc/total:cpu-seconds", "runtime.gc_cpu_s", "s"},
	{"/gc/cycles/total:gc-cycles", "runtime.gc_cycles", "count"},
}

func readRuntime() []float64 {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, rm := range runtimeMetrics {
		samples[i].Name = rm.key
	}
	metrics.Read(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// cpuSeconds is the user+system CPU time of this process so far.
// Getrusage fails only on a bad argument or address, so its error is
// dropped.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS resets the kernel's resident-set high-water mark for
// this process (Linux clear_refs mode 5). Where the kernel refuses, the
// mark covers the child's whole life, which is one run plus set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
