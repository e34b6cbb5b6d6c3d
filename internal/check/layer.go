package check

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cnetverifier/internal/model"
)

// This file implements the level-synchronous search, the engine of
// every BFS run and of every DFS or BFS run with Workers > 1. It
// expands one breadth-first layer at a time. A layer is a pointer-free
// slab of plain state encodings; workers take it in chunks, decode each
// entry into one reusable world (model.World.DecodeInto), apply every
// step in place with apply/undo, run the monitors and mark each
// successor in the shared visited table. A successor recorded for the
// first time is a claim, and the layer barrier turns the claims into
// the next layer.
//
// Every worker count returns the sequential BFS result. A layer's
// transitions are ranked as sequential BFS applies them (rankOf); where
// several reach one new state, the lowest rank wins it, and the next
// layer lists states in winning-rank order. Workers record their claims
// and their rediscoveries of states claimed in the same layer, and the
// barrier keeps the minimum. Each new (property, description) pair is
// likewise reported by its lowest-ranked transition. Only runs cut short
// by MaxStates, Budget or Cancel may differ: which states a cap refuses
// depends on timing. StopAtFirst runs use one worker: parallel workers
// could pass the first violation in that order and leave claims in the
// visited table that the run cannot take back.
//
// A state keeps only an edge — its parent's id and the winning step's
// ordinal. A counterexample is rebuilt after the search by replaying
// the ordinals from the initial world, and its monitor is re-checked on
// the replayed end state.

// layerChunk is the number of frontier entries a worker takes at once.
const layerChunk = 32

// rankOf orders a layer's transitions as sequential BFS applies them:
// by the source's frontier position, then by the step's ordinal.
func rankOf(pos, ord int) uint64 { return uint64(pos)<<32 | uint64(uint32(ord)) }

func rankPos(r uint64) int { return int(r >> 32) }
func rankOrd(r uint64) int { return int(uint32(r)) }

// edge records how a state was first reached. States are numbered in
// discovery order from the initial state 0, so a layer's states have
// consecutive ids.
type edge struct{ parent, ord uint32 }

// frontier is one layer: its states' plain encodings back to back,
// entry i being state base+i.
type frontier struct {
	enc  []byte
	ends []int
	base int
}

func (f *frontier) len() int { return len(f.ends) }

func (f *frontier) entry(i int) []byte {
	lo := 0
	if i > 0 {
		lo = f.ends[i-1]
	}
	return f.enc[lo:f.ends[i]]
}

func (f *frontier) add(enc []byte) {
	f.enc = append(f.enc, enc...)
	f.ends = append(f.ends, len(f.enc))
}

// sighting is a transition that reached a state first recorded in the
// current layer: the claim itself, with the state's plain encoding at
// slab[off:end], or a rediscovery. id is the state's table identity.
type sighting struct {
	id, rank uint64
	off, end int
}

// hit is the lowest-ranked transition of a worker's layer whose
// successor violates property prop with a description not yet reported.
type hit struct {
	key  violKey
	rank uint64
	prop int
}

// pendingViolation is a reported violation whose path is rebuilt after
// the search.
type pendingViolation struct {
	key         violKey
	prop        int
	parent, ord uint32
}

// layerWorker is one worker's scratch and output. Only its goroutine
// touches it during a layer; the barrier reads it in between.
type layerWorker struct {
	w     *model.World
	key   []byte
	steps []model.Step
	undo  model.Undo
	err   error

	cov                             *coverage
	transitions, misrouted, dropped int
	capped                          bool

	// Per layer, reset by the barrier.
	claims, again []sighting
	slab          []byte
	hits          []hit
	hitSet        map[violKey]struct{}
}

// search is the shared state of one run.
type search struct {
	opt     Options
	props   []Property
	sc      Scenario
	visited *visitedSet
	workers []*layerWorker
	tree    []edge
	// seen holds the reported (property, description) pairs; workers
	// read it during a layer, the barrier adds to it.
	seen    map[violKey]struct{}
	pending []pendingViolation
	next    atomic.Int64 // next chunk of the layer to hand out
	halt    atomic.Bool  // a worker failed, the run was cancelled or StopAtFirst fired
}

func runLayered(w0 *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	if opt.StopAtFirst {
		opt.Workers = 1
	}
	if opt.Workers > 1 {
		sc = &lockedScenario{base: sc}
	}
	s := &search{opt: opt, props: props, sc: sc, visited: newVisitedSet(opt),
		tree: []edge{{}}, seen: make(map[violKey]struct{})}
	for i := 0; i < opt.Workers; i++ {
		s.workers = append(s.workers, &layerWorker{w: w0.Clone(), cov: newCoverage(w0), hitSet: make(map[violKey]struct{})})
	}
	root := s.workers[0].w
	if _, _, err := markVisited(s.visited, root, 0, nil); err != nil {
		return nil, err
	}
	f, spare := &frontier{}, &frontier{}
	f.add(root.Encode(nil))
	deepest := 0
	for depth := 0; f.len() > 0 && depth < opt.MaxDepth && !s.halt.Load(); depth++ {
		s.next.Store(0)
		s.each(func(lw *layerWorker) { s.work(lw, f, depth) })
		next, err := s.barrier(f, spare)
		if err != nil {
			return nil, err
		}
		if next.len() > 0 {
			deepest = depth + 1
		}
		f, spare = next, f
	}

	res := &Result{Covered: make(map[string]int), Truncated: opt.Cancel.Cancelled()}
	for _, lw := range s.workers {
		res.Transitions += lw.transitions
		res.Misrouted += lw.misrouted
		res.Dropped += lw.dropped
		res.Truncated = res.Truncated || lw.capped
		lw.cov.into(res.Covered)
	}
	finishVisited(res, s.visited)
	res.MaxDepth = deepest
	res.Truncated = res.Truncated || deepest >= opt.MaxDepth
	for _, pv := range s.pending {
		v, err := s.counterexample(w0, pv)
		if err != nil {
			return nil, err
		}
		res.Violations = append(res.Violations, v)
	}
	return res, nil
}

// each runs fn once per worker, concurrently, and waits for all.
func (s *search) each(fn func(lw *layerWorker)) {
	if len(s.workers) == 1 {
		fn(s.workers[0])
		return
	}
	var wg sync.WaitGroup
	for _, lw := range s.workers {
		wg.Add(1)
		go func(lw *layerWorker) {
			defer wg.Done()
			fn(lw)
		}(lw)
	}
	wg.Wait()
}

// work expands chunks of the frontier until none is left or the run
// halts.
func (s *search) work(lw *layerWorker, f *frontier, depth int) {
	for lo := int(s.next.Add(1)-1) * layerChunk; lo < f.len() && !s.halt.Load(); lo = int(s.next.Add(1)-1) * layerChunk {
		if s.opt.Cancel.Cancelled() {
			s.halt.Store(true)
			return
		}
		for pos := lo; pos < lo+layerChunk && pos < f.len() && !s.halt.Load(); pos++ {
			if lw.err = s.expand(lw, f, pos, depth); lw.err != nil {
				s.halt.Store(true)
			}
		}
	}
}

// expand applies every enabled step of frontier entry pos: it tallies
// the transition, runs the monitors on the successor and records the
// successor at depth+1.
func (s *search) expand(lw *layerWorker, f *frontier, pos, depth int) error {
	w := lw.w
	if err := w.DecodeInto(f.entry(pos)); err != nil {
		return fmt.Errorf("check: frontier state %d: %w", f.base+pos, err)
	}
	lw.steps = w.StepsAppend(lw.steps[:0], s.sc.Events(w))
	w.Save(&lw.undo)
	for ord, st := range lw.steps {
		applied, err := w.Apply(st)
		if err != nil {
			return fmt.Errorf("check: apply %v: %w", st, err)
		}
		lw.transitions++
		lw.misrouted += applied.Misrouted
		lw.dropped += applied.Dropped
		lw.cov.note(applied)
		rank := rankOf(pos, ord)
		if s.check(lw, w, applied, rank) && s.opt.StopAtFirst {
			s.halt.Store(true)
			return nil
		}
		m, key, err := markVisited(s.visited, w, depth+1, lw.key)
		lw.key = key
		switch {
		case err != nil:
			return err
		case m.capped:
			lw.capped = true
		case m.isNew:
			// Under symmetry or compaction the key is not the plain
			// encoding the frontier needs.
			off := len(lw.slab)
			if s.visited.keyIsPlain() {
				lw.slab = append(lw.slab, key...)
			} else {
				lw.slab = w.Encode(lw.slab)
			}
			lw.claims = append(lw.claims, sighting{m.id, rank, off, len(lw.slab)})
		case m.depth == depth+1 && len(s.workers) > 1:
			// A lone worker's rediscoveries rank after its claims.
			lw.again = append(lw.again, sighting{id: m.id, rank: rank})
		}
		w.Restore(&lw.undo)
	}
	return nil
}

// check runs the monitors on a successor and records the worker's first
// transition in the layer to report each new (property, description)
// pair.
func (s *search) check(lw *layerWorker, w *model.World, last model.Step, rank uint64) bool {
	violated := false
	for pi, p := range s.props {
		desc := p.Check(w, last)
		if desc == "" {
			continue
		}
		violated = true
		key := violKey{p.Name(), desc}
		if _, dup := s.seen[key]; dup {
			continue
		}
		if _, dup := lw.hitSet[key]; !dup {
			lw.hitSet[key] = struct{}{}
			lw.hits = append(lw.hits, hit{key, rank, pi})
		}
	}
	return violated
}

// barrier settles each state claimed in the layer and each new violation
// on its lowest-ranked transition, and builds the next layer in spare's
// storage in winning-rank order.
func (s *search) barrier(f, spare *frontier) (*frontier, error) {
	for _, lw := range s.workers {
		if lw.err != nil {
			return nil, lw.err
		}
	}
	// A win is a claim with its winning rank; moved marks one a
	// rediscovery outranked, whose plain encoding may then differ.
	type win struct {
		sighting
		lw    *layerWorker
		moved bool
	}
	var wins []win
	byID := make(map[uint64]int)
	byKey := make(map[violKey]int)
	var hits []hit
	for _, lw := range s.workers {
		for _, c := range lw.claims {
			byID[c.id] = len(wins)
			wins = append(wins, win{sighting: c, lw: lw})
		}
		for _, h := range lw.hits {
			if i, ok := byKey[h.key]; !ok {
				byKey[h.key] = len(hits)
				hits = append(hits, h)
			} else if h.rank < hits[i].rank {
				hits[i] = h
			}
		}
	}
	for _, lw := range s.workers {
		for _, a := range lw.again {
			if i, ok := byID[a.id]; ok && a.rank < wins[i].rank {
				wins[i].rank, wins[i].moved = a.rank, true
			}
		}
	}
	slices.SortFunc(wins, func(a, b win) int { return cmp.Compare(a.rank, b.rank) })
	slices.SortFunc(hits, func(a, b hit) int { return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.prop, b.prop)) })

	if !s.visited.keyIsPlain() {
		// Re-derive the winners' own plain encodings, in parallel.
		var moved []int
		for i := range wins {
			if wins[i].moved {
				moved = append(moved, i)
			}
		}
		s.next.Store(0)
		s.each(func(lw *layerWorker) {
			for j := int(s.next.Add(1) - 1); j < len(moved) && lw.err == nil; j = int(s.next.Add(1) - 1) {
				wn := &wins[moved[j]]
				wn.lw, wn.off = lw, len(lw.slab)
				lw.err = s.rederive(lw, f, wn.rank)
				wn.end = len(lw.slab)
			}
		})
		for _, lw := range s.workers {
			if lw.err != nil {
				return nil, lw.err
			}
		}
	}

	next := spare
	next.base, next.enc, next.ends = len(s.tree), next.enc[:0], next.ends[:0]
	for _, wn := range wins {
		s.tree = append(s.tree, edge{uint32(f.base + rankPos(wn.rank)), uint32(rankOrd(wn.rank))})
		next.add(wn.lw.slab[wn.off:wn.end])
	}
	for _, h := range hits {
		s.seen[h.key] = struct{}{}
		s.pending = append(s.pending, pendingViolation{h.key, h.prop, uint32(f.base + rankPos(h.rank)), uint32(rankOrd(h.rank))})
	}
	for _, lw := range s.workers {
		lw.claims, lw.again, lw.slab, lw.hits = lw.claims[:0], lw.again[:0], lw.slab[:0], lw.hits[:0]
		clear(lw.hitSet)
	}
	return next, nil
}

// rederive appends to the worker's slab the plain encoding of the state
// a ranked transition of f reaches.
func (s *search) rederive(lw *layerWorker, f *frontier, rank uint64) error {
	w := lw.w
	if err := w.DecodeInto(f.entry(rankPos(rank))); err != nil {
		return fmt.Errorf("check: frontier state %d: %w", f.base+rankPos(rank), err)
	}
	lw.steps = w.StepsAppend(lw.steps[:0], s.sc.Events(w))
	if _, err := w.Apply(lw.steps[rankOrd(rank)]); err != nil {
		return fmt.Errorf("check: apply %v: %w", lw.steps[rankOrd(rank)], err)
	}
	lw.slab = w.Encode(lw.slab)
	return nil
}

// counterexample rebuilds a violation's path by replaying the recorded
// step ordinals from w0, and confirms that its monitor reports the same
// description on the end state.
func (s *search) counterexample(w0 *model.World, pv pendingViolation) (Violation, error) {
	ords := []uint32{pv.ord}
	for id := pv.parent; id != 0; id = s.tree[id].parent {
		ords = append(ords, s.tree[id].ord)
	}
	w := w0.Clone()
	path := make([]model.Step, 0, len(ords))
	var steps []model.Step
	for i := len(ords) - 1; i >= 0; i-- {
		steps = w.StepsAppend(steps[:0], s.sc.Events(w))
		if int(ords[i]) >= len(steps) {
			return Violation{}, fmt.Errorf("check: counterexample for %s: step %d does not replay", pv.key.prop, len(path)+1)
		}
		applied, err := w.Apply(steps[ords[i]])
		if err != nil {
			return Violation{}, fmt.Errorf("check: counterexample for %s: replay step %d: %w", pv.key.prop, len(path)+1, err)
		}
		path = append(path, applied)
	}
	if got := s.props[pv.prop].Check(w, path[len(path)-1]); got != pv.key.desc {
		return Violation{}, fmt.Errorf("check: counterexample for %s does not reproduce on replay: got %q, want %q", pv.key.prop, got, pv.key.desc)
	}
	return Violation{Property: pv.key.prop, Desc: pv.key.desc, Path: path}, nil
}
