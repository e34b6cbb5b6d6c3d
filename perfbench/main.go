// Command perfbench is the repository benchmark. It screens or fuzzes
// one named workload for a fixed time, checks the verdict of every run,
// and prints the end-to-end metrics or, with -trace 1, the per-layer
// breakdown of one traced run.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//
// run.sh builds this package and runs it with the same arguments.
// BENCHMARK.json names the workloads and metrics; predictions.json
// records why each workload was chosen and which end-to-end metric each
// per-layer metric should move on which workload.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the
// machine stanza: commit, source digest, Go version, nproc, GOMAXPROCS
// and the workload seed.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// exe is the executable whose "child" mode measures one run.
	exe    string
	pinned map[string]verdict
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 40, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seconds >= 1 and -trace 0 or 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var pinned map[string]verdict
	if err := json.Unmarshal(expectedJSON, &pinned); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  float64(*seconds),
		trace:    *trace == 1,
		exe:      exe,
		pinned:   pinned,
	}
	res, err := bench(cfg)
	if err != nil {
		return err
	}
	stanza, err := json.Marshal(map[string]any{"machine": machine(*seed)})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", stanza, line)
	return err
}

// bench runs one benchmark invocation. Runs whose verdict differs from
// the expected one, or that fail, count as failed; a result with any
// failed run is not correct.
func bench(cfg config) (result, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	pinned, isPinned := cfg.pinned[w.name]
	judge := func(rep childReport, err error) bool {
		res.Attempted++
		if err == nil {
			switch {
			case isPinned:
				err = rep.Outcome.Verdict.diff(pinned)
			case rep.Reference != nil:
				err = rep.Outcome.Verdict.diff(*rep.Reference)
			default:
				err = fmt.Errorf("no pinned verdict and no reference run")
			}
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s run %d failed: %v\n", w.name, res.Attempted, err)
			return false
		}
		return true
	}

	if cfg.trace {
		seed := runSeed(cfg.seed, 0)
		plain, err := spawn(cfg.exe, w.name, seed, false)
		plainOK := judge(plain, err)
		traced, err := spawn(cfg.exe, w.name, seed, true)
		if judge(traced, err) && plainOK {
			for k, v := range traced.Layers {
				res.Metrics[k] = v
			}
			res.Metrics["bench.trace_overhead_s"] = metric{traced.VerdictS - plain.VerdictS, "s"}
			if traced.MirrorErr != "" {
				res.Attempted++
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: model layer not reported: %s\n", w.name, traced.MirrorErr)
			}
		}
		res.Correct = res.Failed == 0
		return res, nil
	}

	var setup, verdictS, cpuS, rss []float64
	start := time.Now()
	for i := 0; ; i++ {
		// Set-up is timed between the runs, so that its samples spread
		// over the whole measurement like the runs' do.
		if setup, err = timeSetup(setup, w, cfg.seed); err != nil {
			return result{}, err
		}
		rep, err := spawn(cfg.exe, w.name, runSeed(cfg.seed, i), false)
		if judge(rep, err) {
			fmt.Fprintf(os.Stderr, "perfbench: %s run %d: verdict_s %.4f cpu_s %.4f peak_rss_mb %.1f\n",
				w.name, i+1, rep.VerdictS, rep.CPUS, rep.PeakRSSMB)
			verdictS = append(verdictS, rep.VerdictS)
			cpuS = append(cpuS, rep.CPUS)
			rss = append(rss, rep.PeakRSSMB)
		}
		// Start another run only if it should end within the time.
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(res.Attempted) > cfg.seconds {
			break
		}
	}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	if len(verdictS) > 0 {
		res.Metrics["verdict_s"] = metric{median(verdictS), "s"}
		res.Metrics["cpu_s"] = metric{median(cpuS), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setupReps is how many times timeSetup builds the workload before each
// run; set-up takes well under a millisecond, so one timing would be
// mostly noise.
const setupReps = 101

// timeSetup appends the times of setupReps builds of the workload.
func timeSetup(ts []float64, w workload, seed int64) ([]float64, error) {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, err := w.build(seed); err != nil {
			return ts, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return ts, nil
}
