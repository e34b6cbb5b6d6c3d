// Package check implements the screening phase of CNetVerifier (§3.2):
// an explicit-state model checker over internal/model worlds.
//
// The checker interleaves all enabled steps of the protocol processes
// (message deliveries, lossy drops, out-of-order deliveries) with
// environment events offered by a Scenario (user demands and operator
// responses, §3.2.1), checks the cellular-oriented properties after
// every step (§3.2.2), and reports each violation with the transition
// path that reached it — the counterexample handed to the validation
// phase (§3.2.3).
//
// Three exploration strategies are provided:
//
//   - DFS: bounded-depth depth-first search with visited-state
//     deduplication (the default; mirrors Spin's search).
//   - BFS: breadth-first search, producing shortest counterexamples.
//   - RandomWalk: seeded random schedule sampling, the paper's approach
//     for scenario spaces too large to enumerate.
package check

import (
	"fmt"
	"math/rand"

	"cnetverifier/internal/model"
)

// Property is a cellular-oriented correctness property (§3.2.2)
// evaluated as a monitor over world states.
type Property interface {
	// Name identifies the property (e.g. "PacketService_OK").
	Name() string
	// Check inspects the world after last was applied. It returns a
	// non-empty description when the state violates the property.
	Check(w *model.World, last model.Step) string
}

// Scenario offers candidate environment events for a world (§3.2.1
// usage-scenario modeling). Implementations must be deterministic
// functions of the world state so DFS/BFS remain sound; RandomWalk may
// be paired with stochastic scenarios.
type Scenario interface {
	Events(w *model.World) []model.EnvEvent
}

// ScenarioFunc adapts a function to the Scenario interface.
type ScenarioFunc func(w *model.World) []model.EnvEvent

// Events implements Scenario.
func (f ScenarioFunc) Events(w *model.World) []model.EnvEvent { return f(w) }

// Strategy selects the exploration order.
type Strategy uint8

const (
	// DFS explores depth-first (default).
	DFS Strategy = iota
	// BFS explores breadth-first, yielding shortest counterexamples.
	BFS
	// RandomWalk samples random maximal schedules.
	RandomWalk
)

func (s Strategy) String() string {
	switch s {
	case DFS:
		return "dfs"
	case BFS:
		return "bfs"
	case RandomWalk:
		return "random-walk"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Options bounds and configures a checking run.
type Options struct {
	// Strategy selects DFS (default), BFS or RandomWalk.
	Strategy Strategy
	// MaxDepth bounds the length of explored paths (default 64).
	MaxDepth int
	// MaxStates bounds the number of distinct states visited
	// (default 1 << 20).
	MaxStates int
	// StopAtFirst stops the entire run at the first violation.
	StopAtFirst bool
	// SkipLint disables the pre-screening structural lint
	// (internal/lint). By default Run refuses to explore a world whose
	// lint report carries error-severity findings — exploring a
	// structurally broken world silently shrinks the state space and
	// can mask real property violations.
	SkipLint bool
	// LintSuppress disables individual lint rules per process name
	// during the pre-screening gate (key "*" disables a rule
	// everywhere); values are rule IDs like "MSG003". Scoped worlds
	// that deliberately project away a layer use this instead of
	// SkipLint so every other rule still gates.
	LintSuppress map[string][]string
	// Paranoid fails on any fingerprint collision in the visited table
	// instead of resolving it (exact mode) — used by tests to validate
	// the hashing scheme. Incompatible with Compact.
	Paranoid bool
	// Compact switches the visited table to hash-compaction mode
	// (Spin's supertrace idea): states are recorded by 48-bit
	// fingerprint only, without the full-encoding arena that exact mode
	// uses to resolve fingerprint collisions, cutting the visited-set
	// footprint to ~8 bytes of table per state. Two distinct states
	// whose fingerprints collide are then silently merged — the
	// unexplored subtree is an omission — so results are sound upper
	// bounds with the omission-probability bound reported in
	// Result.Omission. Use it for depth/state bounds that exhaust
	// memory in exact mode; composes with POR, Symmetry and Workers.
	Compact bool
	// Walks and Seed configure RandomWalk: number of schedules sampled
	// and the RNG seed (defaults 1000 and 1). Each walk derives its own
	// RNG stream from (Seed, walk index), so the sampled schedule set —
	// and therefore the violation set — is identical however the walks
	// are scheduled across workers.
	Walks int
	Seed  int64
	// Workers sets the number of exploration goroutines. 0 or 1 runs
	// the sequential engine; >1 runs the work-stealing frontier search
	// (DFS/BFS) or splits the walks (RandomWalk). Parallel runs report
	// the same state count, violation set and transition coverage as
	// sequential runs of the same world (see the determinism contract
	// in DESIGN.md); counterexample paths are re-verified with Replay
	// before being reported.
	Workers int
	// POR enables independence-powered partial-order reduction for the
	// DFS/BFS strategies (RandomWalk ignores it: sampled schedules are
	// not an interleaving fixpoint). The static effect analysis
	// (internal/lint/effects) partitions the world's processes into
	// clusters that share no globals and exchange no messages; the
	// checker then explores each cluster's projection (model.World.
	// Project) instead of their product, cutting visited states from
	// the product of the cluster sizes to their sum. When the analysis
	// finds a single cluster the run is identical to POR off.
	//
	// Soundness assumptions, both documented in DESIGN.md: the scenario
	// offers a state-independent event set (true of every registry
	// scenario), and each property reads only globals written within
	// one cluster (true of every props.* property). The violation set —
	// the (property, description) pairs — is then exactly the full
	// product's; counterexample paths are cluster-local and replay
	// against the cluster's projection.
	POR bool
	// Symmetry enables replica-symmetry reduction for the DFS/BFS
	// strategies (RandomWalk ignores it, like POR: sampled schedules are
	// not a dedup fixpoint to quotient). The visited set keys states by
	// model.World.AppendCanonicalHash instead of AppendHash: per the
	// world's Symmetry descriptor, the per-replica sub-encodings are
	// sorted lexicographically before fingerprinting, so all n!
	// permutations of an n-replica state share one visited entry and the
	// exploration walks the quotient. A world without a descriptor is
	// unaffected (the canonical encoding degenerates to the plain one).
	//
	// Replica-labeled properties (e.g. props.DataServiceOKIn("ue2")) can
	// fire on permuted twins the quotient prunes, so Run closes the
	// violation set under the declared permutations afterwards
	// (symmetrizeViolations): the reported (property, description) set
	// equals the plain run's exactly — see DESIGN.md for the soundness
	// argument and its assumptions (equivariant scenario and monitors).
	//
	// Composes with POR: cluster projections carry the filtered
	// descriptor and canonicalize within each cluster, and the closure
	// runs once at the top level over the full world's descriptor.
	Symmetry bool
	// Timing acknowledges a world with virtual-time timers
	// (model.World.EnableTiming): the engines then enumerate the
	// admissible expiry-vs-delivery orderings as ordinary steps (the
	// model's StepsAppend includes StepTimer transitions, with the
	// zone-abstracted windows in the state encoding, so every engine,
	// POR cluster projection and symmetry quotient explores them
	// unchanged). Running a timed world without Timing set is an error
	// — the silent alternative would be exploring timed worlds whose
	// timer steps the caller never asked for. On an untimed world the
	// flag is a no-op.
	Timing bool
	// Budget optionally shares a pool of distinct-state tokens across
	// several runs (a screening campaign's global bound). When the pool
	// dries up the run truncates, exactly like MaxStates.
	Budget *Budget
	// Cancel optionally aborts the run cooperatively from outside (or
	// from a sibling run in a campaign). A cancelled run returns its
	// partial result with Truncated set.
	Cancel *Cancel
}

// IsZero reports whether the options are entirely unset. Callers use
// the zero value to mean "use suggested defaults"; the LintSuppress map
// makes Options non-comparable, so == is not available for this.
func (o Options) IsZero() bool {
	return o.Strategy == DFS && o.MaxDepth == 0 && o.MaxStates == 0 &&
		!o.StopAtFirst && !o.Paranoid && !o.Compact && !o.SkipLint && o.LintSuppress == nil &&
		o.Walks == 0 && o.Seed == 0 && !o.POR && !o.Symmetry && !o.Timing &&
		o.Workers == 0 && o.Budget == nil && o.Cancel == nil
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 64
	}
	if o.MaxStates == 0 {
		o.MaxStates = 1 << 20
	}
	if o.Walks == 0 {
		o.Walks = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// Violation is one property violation with its counterexample.
type Violation struct {
	// Property names the violated property.
	Property string
	// Desc describes the violating state.
	Desc string
	// Path is the step sequence from the initial state to the
	// violation (the counterexample, §3.2.3).
	Path []model.Step
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violated after %d steps: %s", v.Property, len(v.Path), v.Desc)
}

// Result summarizes a checking run.
type Result struct {
	// States counts distinct states visited (by hash).
	States int
	// Transitions counts steps applied.
	Transitions int
	// MaxDepth is the deepest path length reached.
	MaxDepth int
	// Truncated reports whether a bound (depth/state cap) cut the
	// exploration short.
	Truncated bool
	// Violations holds one entry per distinct (property, description)
	// pair, each with a replayable counterexample. Sequential runs list
	// them in discovery order; parallel runs (Workers > 1) in canonical
	// order (property, description, path length, path). The set of
	// entries is deterministic for a given world+options; the
	// counterexample chosen for an entry may differ between parallel
	// runs (whichever worker reached the violating state first), but
	// is always re-verified with Replay before being reported.
	Violations []Violation
	// Covered counts, per "proc/transition-label", how often each
	// protocol transition fired during exploration — the model-side
	// coverage metric (a transition never exercised means the scenario
	// space misses part of the spec).
	Covered map[string]int
	// Misrouted and Dropped count messages lost while applying steps:
	// sends to a process absent from the (scoped) world and sends
	// discarded at a full inbox (model.Stats). Like Transitions they
	// tally work, not state-space structure, so parallel runs may count
	// a transition's losses once per exploration of it.
	Misrouted int
	Dropped   int
	// Omission is the hash-compaction soundness bound (Options.
	// Compact): an upper bound on the probability that at least one
	// pair of distinct states shared a fingerprint and was merged,
	// omitting a subtree from the search. Always 0 in exact mode. POR
	// runs report the sum of their cluster runs' bounds.
	Omission float64
	// Visited describes the visited table after the run — occupancy,
	// probe-length histogram, arena bytes (see VisitedStats). Slot
	// placement depends on claim interleaving, so these diagnostics are
	// outside the determinism contract.
	Visited *VisitedStats
}

// Violated reports whether the named property was violated.
func (r *Result) Violated(property string) bool {
	for _, v := range r.Violations {
		if v.Property == property {
			return true
		}
	}
	return false
}

// ViolationsOf returns all violations of the named property.
func (r *Result) ViolationsOf(property string) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Property == property {
			out = append(out, v)
		}
	}
	return out
}

type node struct {
	w     *model.World
	path  *pathNode
	depth int
}

// violKey identifies a distinct violation. A comparable struct key —
// not a concatenated string — so the per-transition duplicate check in
// checkProps is allocation-free.
type violKey struct {
	prop, desc string
}

// Run explores the world from its current state under the scenario and
// returns the checking result. The input world is not mutated.
func Run(w *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if opt.Compact && opt.Paranoid {
		return nil, fmt.Errorf("check: Options.Compact and Options.Paranoid are incompatible: compaction drops the encodings paranoid mode verifies against")
	}
	if w.TimingEnabled() && !opt.Timing {
		return nil, fmt.Errorf("check: world has virtual-time timers; set Options.Timing to enumerate timed schedules")
	}
	if sc == nil {
		sc = ScenarioFunc(func(*model.World) []model.EnvEvent { return nil })
	}
	if !opt.SkipLint {
		if err := prescreen(w, sc, opt.LintSuppress); err != nil {
			return nil, err
		}
	}
	var res *Result
	var err error
	if opt.POR && (opt.Strategy == DFS || opt.Strategy == BFS) {
		res, err = runPOR(w, props, sc, opt)
	} else {
		res, err = dispatch(w, props, sc, opt)
	}
	if err != nil {
		return nil, err
	}
	if opt.Symmetry && (opt.Strategy == DFS || opt.Strategy == BFS) {
		// Close the violation set under the world's replica permutations:
		// the quotient search visits one representative per orbit, so a
		// replica-labeled property may have fired only on the
		// representative's labeling. Runs once here, over the full
		// world's descriptor, whether the states came from the plain
		// engines or from POR cluster projections.
		symmetrizeViolations(res, w.Symmetry())
	}
	return res, nil
}

// parallelRootWidthMin is the spin-up threshold of the parallel
// frontier search: a root frontier below it (a single enabled step)
// leaves the workers nothing to share until the search has fanned out,
// and BENCH_screen shows the parallel engine is a wash or worse on
// such worlds (s1, s2, s4ps). dispatch then degrades to the sequential
// engine — result-identical by the determinism contract, minus the
// spin-up cost.
const parallelRootWidthMin = 2

// degradeParallel reports whether a parallel search request should run
// on the sequential engine instead: the root frontier is too narrow to
// amortize worker spin-up. Only meaningful for DFS/BFS (walk splitting
// parallelizes over walks, not over the frontier).
func degradeParallel(w *model.World, sc Scenario, opt Options) bool {
	if opt.Workers <= 1 || (opt.Strategy != DFS && opt.Strategy != BFS) {
		return false
	}
	return len(w.Steps(sc.Events(w))) < parallelRootWidthMin
}

// dispatch routes an already-defaulted, already-prescreened run to its
// exploration engine.
func dispatch(w *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	var res *Result
	var err error
	switch opt.Strategy {
	case DFS, BFS:
		switch {
		case opt.Workers > 1 && !degradeParallel(w, sc, opt):
			res, err = runParallelSearch(w, props, sc, opt)
		case opt.Strategy == DFS:
			res, err = runDFS(w, props, sc, opt)
		default:
			res, err = runSearch(w, props, sc, opt)
		}
	case RandomWalk:
		if opt.Workers > 1 {
			res, err = runParallelWalk(w, props, sc, opt)
		} else {
			res, err = runRandomWalk(w, props, sc, opt)
		}
	default:
		return nil, fmt.Errorf("check: unknown strategy %v", opt.Strategy)
	}
	return res, err
}

// coverage tallies fired transitions by (process index, transition
// index) so the exploration hot path never builds a "proc/label"
// string key; the counters materialize into a Result.Covered map once
// per run.
type coverage struct {
	w      *model.World
	counts [][]int
}

func newCoverage(w *model.World) *coverage {
	c := &coverage{w: w, counts: make([][]int, len(w.Procs))}
	for i, p := range w.Procs {
		c.counts[i] = make([]int, len(p.M.Spec().Transitions))
	}
	return c
}

// note records an applied step (no-op for drops/discards, which fire
// no transition).
func (c *coverage) note(s model.Step) {
	if s.Label == "" {
		return
	}
	if i, ok := c.w.ProcIndex(s.Proc); ok && s.TransIdx < len(c.counts[i]) {
		c.counts[i][s.TransIdx]++
	}
}

// into materializes the counters into a Covered map.
func (c *coverage) into(m map[string]int) map[string]int {
	for i, p := range c.w.Procs {
		spec := p.M.Spec()
		for ti, n := range c.counts[i] {
			if n > 0 {
				m[p.Name+"/"+spec.Transitions[ti].Name] += n
			}
		}
	}
	return m
}

// runDFS is the sequential depth-first engine, exploring in place with
// the model layer's apply/undo discipline: the world is snapshotted
// once per search node (Save) and rewound after each child (Restore)
// instead of cloned per transition — Spin's state-vector restore. The
// node order replicates the frontier-stack engine exactly (children
// are property-checked in step order, then descended in reverse push
// order, i.e. LIFO), so discovery order — and with it the first
// counterexample found under StopAtFirst and the golden traces — is
// unchanged. Steady-state exploration allocates nothing: per-depth
// frames (undo record, steps buffer, expand list) are reused across
// the whole run and grow only while the search deepens.
func runDFS(w0 *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	res := &Result{Covered: make(map[string]int)}
	visited := newVisitedSet(opt)
	seenViol := make(map[violKey]struct{})
	cov := newCoverage(w0)
	var buf []byte

	w := w0.Clone()
	var err error
	if _, buf, err = markVisited(visited, w, 0, buf); err != nil {
		return nil, err
	}

	type frame struct {
		undo   model.Undo
		steps  []model.Step
		expand []model.Step
	}
	var frames []*frame
	frameAt := func(depth int) *frame {
		for len(frames) <= depth {
			frames = append(frames, &frame{})
		}
		return frames[depth]
	}
	var path []model.Step
	stop := false

	var rec func(depth int) error
	rec = func(depth int) error {
		if opt.Cancel.Cancelled() {
			res.Truncated = true
			stop = true
			return nil
		}
		if depth > res.MaxDepth {
			res.MaxDepth = depth
		}
		if depth >= opt.MaxDepth {
			res.Truncated = true
			return nil
		}
		f := frameAt(depth)
		f.steps = w.StepsAppend(f.steps[:0], sc.Events(w))
		f.expand = f.expand[:0]
		w.Save(&f.undo)
		for _, s := range f.steps {
			applied, err := w.Apply(s)
			if err != nil {
				return fmt.Errorf("check: apply %v: %w", s, err)
			}
			res.Transitions++
			res.Misrouted += applied.Misrouted
			res.Dropped += applied.Dropped
			cov.note(applied)
			path = append(path, applied)
			violated := checkProps(w, applied, path, props, seenViol, res)
			path = path[:len(path)-1]
			if violated && opt.StopAtFirst {
				stop = true
				w.Restore(&f.undo)
				return nil
			}
			var mark markResult
			if mark, buf, err = markVisited(visited, w, depth+1, buf); err != nil {
				return err
			}
			w.Restore(&f.undo)
			if mark.capped {
				res.Truncated = true
				continue
			}
			if mark.expand {
				f.expand = append(f.expand, applied)
			}
		}
		// Descend in reverse order: the frontier-stack engine pushed
		// expandable children in step order and popped the last one
		// first. Each descent re-applies the already-annotated step
		// (not counted again — the check loop above owns the tally).
		for i := len(f.expand) - 1; i >= 0; i-- {
			s := f.expand[i]
			if _, err := w.Apply(s); err != nil {
				return fmt.Errorf("check: apply %v: %w", s, err)
			}
			path = append(path, s)
			err := rec(depth + 1)
			path = path[:len(path)-1]
			w.Restore(&f.undo)
			if err != nil || stop {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	cov.into(res.Covered)
	finishVisited(res, visited)
	return res, nil
}

func runSearch(w0 *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	res := &Result{Covered: make(map[string]int)}
	visited := newVisitedSet(opt)
	seenViol := make(map[violKey]struct{})
	var buf []byte
	var arena stepArena
	var steps []model.Step
	var undo model.Undo

	root := &node{w: w0.Clone()}
	var err error
	if _, buf, err = markVisited(visited, root.w, 0, buf); err != nil {
		return nil, err
	}

	// frontier is used as a LIFO stack for DFS and FIFO queue for BFS.
	frontier := []*node{root}
	for len(frontier) > 0 {
		if opt.Cancel.Cancelled() {
			res.Truncated = true
			break
		}
		var n *node
		if opt.Strategy == BFS {
			n = frontier[0]
			frontier = frontier[1:]
		} else {
			n = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
		}
		if n.depth > res.MaxDepth {
			res.MaxDepth = n.depth
		}
		if n.depth >= opt.MaxDepth {
			res.Truncated = true
			continue
		}
		// Apply/undo on the node's own world; only a transition that
		// discovers (or shallower-rediscovers) a state clones.
		steps = n.w.StepsAppend(steps[:0], sc.Events(n.w))
		n.w.Save(&undo)
		for _, s := range steps {
			applied, err := n.w.Apply(s)
			if err != nil {
				return nil, fmt.Errorf("check: apply %v: %w", s, err)
			}
			res.Transitions++
			res.Misrouted += applied.Misrouted
			res.Dropped += applied.Dropped
			if applied.Label != "" {
				res.Covered[applied.Proc+"/"+applied.Label]++
			}
			path := arena.append(n.path, applied)
			if violated := checkPropsNode(n.w, applied, path, props, seenViol, res); violated && opt.StopAtFirst {
				finishVisited(res, visited)
				return res, nil
			}
			var mark markResult
			if mark, buf, err = markVisited(visited, n.w, n.depth+1, buf); err != nil {
				return nil, err
			}
			switch {
			case mark.capped:
				res.Truncated = true
			case mark.expand:
				frontier = append(frontier, &node{w: n.w.Clone(), path: path, depth: n.depth + 1})
			}
			n.w.Restore(&undo)
		}
	}
	finishVisited(res, visited)
	return res, nil
}

// finishVisited copies the visited set's final accounting into the
// result: state count, compaction omission bound and table
// diagnostics.
func finishVisited(res *Result, visited *visitedSet) {
	res.States = visited.size()
	res.Omission = visited.omission()
	res.Visited = visited.stats()
}

// walkSeed derives an independent RNG seed for one walk from the run
// seed (SplitMix64 finalizer), so walk w samples the same schedule
// whether it runs first, last, or on another goroutine.
func walkSeed(seed int64, walk int) int64 {
	z := uint64(seed) + uint64(walk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func runRandomWalk(w0 *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	res := &Result{Covered: make(map[string]int)}
	seenViol := make(map[violKey]struct{})
	visited := newVisitedSet(opt)
	var buf []byte
	var err error
	if _, buf, err = markVisited(visited, w0, 0, buf); err != nil {
		return nil, err
	}

	var wk walker
	for walk := 0; walk < opt.Walks; walk++ {
		if opt.Cancel.Cancelled() {
			res.Truncated = true
			break
		}
		stop, err := oneWalk(w0, &wk, props, sc, opt, walk, visited, &buf, seenViol, res)
		if err != nil {
			return nil, err
		}
		if stop {
			break
		}
	}
	finishVisited(res, visited)
	return res, nil
}

// walker is per-goroutine scratch for random walks: a reusable world
// refreshed with CloneInto at the start of each walk plus steps/path
// buffers, so sampling thousands of schedules reuses one allocation
// footprint.
type walker struct {
	w     *model.World
	steps []model.Step
	path  []model.Step
}

// oneWalk samples one maximal schedule with the walk's own RNG stream,
// accumulating into res (the caller owns any locking; the sequential
// engine passes its private result). It reports whether the run should
// stop (StopAtFirst hit a violation).
func oneWalk(w0 *model.World, wk *walker, props []Property, sc Scenario, opt Options, walk int, visited *visitedSet, buf *[]byte, seenViol map[violKey]struct{}, res *Result) (bool, error) {
	rng := rand.New(rand.NewSource(walkSeed(opt.Seed, walk)))
	if wk.w == nil {
		wk.w = &model.World{}
	}
	w := wk.w
	w0.CloneInto(w)
	path := wk.path[:0]
	defer func() { wk.path = path[:0] }()
	for depth := 0; depth < opt.MaxDepth; depth++ {
		wk.steps = w.StepsAppend(wk.steps[:0], sc.Events(w))
		steps := wk.steps
		if len(steps) == 0 {
			break
		}
		s := steps[rng.Intn(len(steps))]
		applied, err := w.Apply(s)
		if err != nil {
			return false, fmt.Errorf("check: walk %d apply %v: %w", walk, s, err)
		}
		res.Transitions++
		res.Misrouted += applied.Misrouted
		res.Dropped += applied.Dropped
		if applied.Label != "" {
			res.Covered[applied.Proc+"/"+applied.Label]++
		}
		if depth+1 > res.MaxDepth {
			res.MaxDepth = depth + 1
		}
		// Plain append is safe here (unlike the search engines'
		// appendPath): a walk has no sibling branches sharing the
		// buffer, and checkProps deep-copies any captured path.
		path = append(path, applied)
		var mark markResult
		if mark, *buf, err = markVisited(visited, w, depth+1, *buf); err != nil {
			return false, err
		}
		if mark.capped {
			res.Truncated = true
		}
		if violated := checkProps(w, applied, path, props, seenViol, res); violated && opt.StopAtFirst {
			return true, nil
		}
	}
	return false, nil
}

func checkProps(w *model.World, last model.Step, path []model.Step, props []Property, seen map[violKey]struct{}, res *Result) bool {
	violated := false
	for _, p := range props {
		desc := p.Check(w, last)
		if desc == "" {
			continue
		}
		violated = true
		key := violKey{p.Name(), desc}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		res.Violations = append(res.Violations, Violation{
			Property: p.Name(),
			Desc:     desc,
			Path:     clonePath(path),
		})
	}
	return violated
}

// checkPropsNode is checkProps for the frontier engines, whose paths
// are parent-pointer chains: the counterexample materializes only when
// a violation is actually new.
func checkPropsNode(w *model.World, last model.Step, tail *pathNode, props []Property, seen map[violKey]struct{}, res *Result) bool {
	violated := false
	for _, p := range props {
		desc := p.Check(w, last)
		if desc == "" {
			continue
		}
		violated = true
		key := violKey{p.Name(), desc}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		res.Violations = append(res.Violations, Violation{
			Property: p.Name(),
			Desc:     desc,
			Path:     materializePath(tail),
		})
	}
	return violated
}

// Replay applies a counterexample path to a fresh world, returning the
// resulting world. It is the bridge to the validation phase: the same
// step sequence can then be reproduced on the emulator.
func Replay(w *model.World, path []model.Step) (*model.World, error) {
	r := w.Clone()
	for i, s := range path {
		if _, err := r.Apply(s); err != nil {
			return nil, fmt.Errorf("check: replay step %d (%v): %w", i, s, err)
		}
	}
	return r, nil
}

// FormatCounterexample renders a violation's path as a numbered,
// human-readable trace.
func FormatCounterexample(v Violation) string {
	s := fmt.Sprintf("counterexample for %s (%s):\n", v.Property, v.Desc)
	for i, st := range v.Path {
		s += fmt.Sprintf("  %2d. %s\n", i+1, st)
		for _, note := range st.Notes {
			s += fmt.Sprintf("      | %s\n", note)
		}
	}
	return s
}

// SpecCoverage reports, per process, the fraction of its spec's
// transitions that fired at least once during the run, with the list of
// transitions never exercised. It is the verification-coverage view of
// a screening run: unexercised defect transitions mean the scenario
// space cannot reach them.
func SpecCoverage(w *model.World, res *Result) map[string]CoverageReport {
	out := make(map[string]CoverageReport, len(w.Procs))
	for _, p := range w.Procs {
		spec := p.M.Spec()
		rep := CoverageReport{Total: len(spec.Transitions)}
		for _, t := range spec.Transitions {
			if res.Covered[p.Name+"/"+t.Name] > 0 {
				rep.Fired++
			} else {
				rep.Missed = append(rep.Missed, t.Name)
			}
		}
		out[p.Name] = rep
	}
	return out
}

// CoverageReport summarizes one process's transition coverage.
type CoverageReport struct {
	// Fired and Total count spec transitions exercised vs declared.
	Fired, Total int
	// Missed lists the transition labels never exercised.
	Missed []string
}

// Fraction returns Fired/Total (1 for an empty spec).
func (c CoverageReport) Fraction() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.Fired) / float64(c.Total)
}
