package fsm

import (
	"sort"
	"sync"
)

// This file implements the interned, flat representation behind
// Machine: a package-level symbol interner for variable and global
// names, and a per-Spec layout that resolves every declared variable to
// a dense slot index at construction time. Guards and actions keep
// using string names (one read-only map lookup, no global locking on
// the hot path); the checker-facing encoding and cloning paths operate
// on []int32 slabs only.

// Sym is an interned name: a dense process-wide identifier for a
// variable or global name string. Syms are assigned in first-intern
// order and are therefore NOT stable across runs — they must never
// leak into canonical state encodings (layouts sort by name instead).
type Sym int32

var interner = struct {
	mu    sync.RWMutex
	ids   map[string]Sym
	names []string
}{ids: make(map[string]Sym)}

// Intern returns the symbol for a name, assigning the next dense id on
// first sight. Interning also canonicalizes the string: every layout
// and world built afterwards shares one copy of the name's bytes.
func Intern(name string) Sym {
	interner.mu.RLock()
	s, ok := interner.ids[name]
	interner.mu.RUnlock()
	if ok {
		return s
	}
	interner.mu.Lock()
	defer interner.mu.Unlock()
	if s, ok = interner.ids[name]; ok {
		return s
	}
	s = Sym(len(interner.names))
	interner.names = append(interner.names, name)
	interner.ids[name] = s
	return s
}

// SymName returns the name a symbol was interned from ("" if unknown).
func SymName(s Sym) string {
	interner.mu.RLock()
	defer interner.mu.RUnlock()
	if int(s) < 0 || int(s) >= len(interner.names) {
		return ""
	}
	return interner.names[s]
}

// SymString returns the canonical (interned) copy of a name's string,
// so distinct layouts referencing the same name share its bytes.
func SymString(name string) string {
	return SymName(Intern(name))
}

// layout is the flat variable layout of one Spec: declared names in
// sorted order, each resolved to a dense slot index. It is shared by
// every Machine of the spec and immutable apart from ord, which is
// filled in once.
type layout struct {
	names []string         // sorted declared variable names
	syms  []Sym            // interned symbols, parallel to names
	slot  map[string]int32 // name -> slot index
	init  []int32          // initial values, slot order
	spec  *Spec
	// ord maps each control state of the spec to its position in the
	// sorted States() list — the u16 the encoding writes in place of
	// the state name (see Machine.encode) — and states is that list,
	// the map's inverse for Machine.Decode. Both are built on first
	// use, so constructing machines does not pay for them.
	ordOnce sync.Once
	ord     map[State]uint16
	states  []State
}

// layouts caches one layout per *Spec. Specs are built once at package
// init and treated as immutable after the first Machine instantiation;
// the cache is only consulted at construction time (fsm.New), never on
// the exploration hot path.
var layouts sync.Map // *Spec -> *layout

func layoutFor(s *Spec) *layout {
	if l, ok := layouts.Load(s); ok {
		return l.(*layout)
	}
	l := buildLayout(s)
	actual, _ := layouts.LoadOrStore(s, l)
	return actual.(*layout)
}

func buildLayout(s *Spec) *layout {
	l := &layout{
		spec:  s,
		names: make([]string, 0, len(s.Vars)),
		slot:  make(map[string]int32, len(s.Vars)),
	}
	for k := range s.Vars {
		l.names = append(l.names, SymString(k))
	}
	sort.Strings(l.names)
	l.syms = make([]Sym, len(l.names))
	l.init = make([]int32, len(l.names))
	for i, k := range l.names {
		l.slot[k] = int32(i)
		l.syms[i] = Intern(k)
		l.init[i] = int32(s.Vars[k])
	}
	return l
}

// stateEscape is the ordinal that announces a control state outside
// the spec's state list; the state's name follows it.
const stateEscape = 0xFFFF

// ordinal returns the state's position in the spec's sorted state list,
// or false for a state the spec never mentions.
func (l *layout) ordinal(st State) (uint16, bool) {
	l.ordOnce.Do(l.buildOrd)
	o, ok := l.ord[st]
	return o, ok
}

// state returns the control state at ordinal o, or false for an
// ordinal past the spec's state list.
func (l *layout) state(o uint16) (State, bool) {
	l.ordOnce.Do(l.buildOrd)
	if int(o) >= len(l.states) {
		return "", false
	}
	return l.states[o], true
}

func (l *layout) buildOrd() {
	states := l.spec.States()
	if len(states) > int(stateEscape) {
		states = states[:stateEscape] // the rest encode by name
	}
	l.states = states
	l.ord = make(map[State]uint16, len(states))
	for i, st := range states {
		l.ord[st] = uint16(i)
	}
}

// Slot returns the dense index of a declared variable of the spec, for
// use with Ctx.GetI/SetI inside guards and actions. The bool reports
// whether the variable is declared; undeclared (runtime-grown)
// variables have no slot and must use the string forms.
func (s *Spec) Slot(name string) (int32, bool) {
	i, ok := layoutFor(s).slot[name]
	return i, ok
}

// SlotName returns the declared variable name at a slot index ("" when
// out of range) — the inverse of Slot, used by diagnostics.
func (s *Spec) SlotName(slot int32) string {
	l := layoutFor(s)
	if slot < 0 || int(slot) >= len(l.names) {
		return ""
	}
	return l.names[slot]
}

// overVar is one undeclared variable added to a machine at runtime via
// SetVar (test harnesses and replay mutations). The overflow list is
// kept sorted by name so the canonical encoding stays a pure function
// of the machine's logical state.
type overVar struct {
	name string
	val  int32
}

// overIdx locates name in the sorted overflow list.
func overIdx(over []overVar, name string) (int, bool) {
	i := sort.Search(len(over), func(i int) bool { return over[i].name >= name })
	return i, i < len(over) && over[i].name == name
}
