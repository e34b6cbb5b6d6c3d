package fsm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"cnetverifier/internal/types"
)

// testCtx is a minimal Ctx for exercising machines in isolation.
type testCtx struct {
	globals map[string]int
	sent    []types.Message
	outputs []types.Message
	traces  []string
}

func newTestCtx() *testCtx {
	return &testCtx{globals: make(map[string]int)}
}

func (c *testCtx) Get(name string) int { return c.globals[name] }
func (c *testCtx) Set(name string, v int) {
	c.globals[name] = v
}
func (c *testCtx) GetI(int32) int32  { return 0 }
func (c *testCtx) SetI(int32, int32) {}
func (c *testCtx) Send(to string, msg types.Message) {
	msg.To = to
	c.sent = append(c.sent, msg)
}
func (c *testCtx) Output(msg types.Message) { c.outputs = append(c.outputs, msg) }
func (c *testCtx) Trace(format string, args ...any) {
	c.traces = append(c.traces, fmt.Sprintf(format, args...))
}

func toggleSpec() *Spec {
	return &Spec{
		Name: "toggle",
		Init: "OFF",
		Vars: map[string]int{"count": 0},
		Transitions: []Transition{
			{Name: "on", From: "OFF", On: types.MsgPowerOn, To: "ON",
				Action: func(c Ctx, e Event) { c.Set("count", c.Get("count")+1) }},
			{Name: "off", From: "ON", On: types.MsgPowerOff, To: "OFF"},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := toggleSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []*Spec{
		{Name: "", Init: "A"},
		{Name: "x", Init: ""},
		{Name: "x", Init: "A", Transitions: []Transition{{From: "", To: "A", On: types.MsgPowerOn}}},
		{Name: "x", Init: "A", Transitions: []Transition{{From: "A", To: "", On: types.MsgPowerOn}}},
		{Name: "x", Init: "A", Transitions: []Transition{{From: "A", To: "B"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSpecStates(t *testing.T) {
	got := toggleSpec().States()
	want := []State{"OFF", "ON"}
	if len(got) != len(want) {
		t.Fatalf("States() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("States() = %v, want %v", got, want)
		}
	}
}

func TestMachineStep(t *testing.T) {
	m := New(toggleSpec())
	c := newTestCtx()

	if m.State() != "OFF" {
		t.Fatalf("initial state = %s, want OFF", m.State())
	}
	tr, ok := m.Step(c, Ev(types.MsgPowerOn))
	if !ok || tr.Name != "on" {
		t.Fatalf("Step(PowerOn) = %v,%v", tr, ok)
	}
	if m.State() != "ON" {
		t.Fatalf("state after PowerOn = %s, want ON", m.State())
	}
	if m.Var("count") != 1 {
		t.Fatalf("count = %d, want 1", m.Var("count"))
	}
	// Unexpected event in ON state is discarded.
	if _, ok := m.Step(c, Ev(types.MsgPowerOn)); ok {
		t.Fatal("PowerOn in ON state should be discarded")
	}
	if _, ok := m.Step(c, Ev(types.MsgPowerOff)); !ok {
		t.Fatal("PowerOff in ON state should fire")
	}
	if m.State() != "OFF" {
		t.Fatalf("state after PowerOff = %s, want OFF", m.State())
	}
}

func TestWildcardAndSame(t *testing.T) {
	spec := &Spec{
		Name: "w",
		Init: "A",
		Transitions: []Transition{
			{Name: "go", From: "A", On: types.MsgPowerOn, To: "B"},
			{Name: "note", From: Any, On: types.MsgUserMove, To: Same,
				Action: func(c Ctx, e Event) { c.Set("moves", c.Get("moves")+1) }},
			{Name: "reset", From: Any, On: types.MsgPowerOff, To: "A"},
		},
	}
	m := New(spec)
	c := newTestCtx()

	if _, ok := m.Step(c, Ev(types.MsgUserMove)); !ok {
		t.Fatal("wildcard transition should fire in A")
	}
	if m.State() != "A" {
		t.Fatalf("Same should keep state, got %s", m.State())
	}
	m.Step(c, Ev(types.MsgPowerOn))
	if _, ok := m.Step(c, Ev(types.MsgUserMove)); !ok {
		t.Fatal("wildcard transition should fire in B")
	}
	if m.Var("moves") != 2 {
		t.Fatalf("moves = %d, want 2", m.Var("moves"))
	}
	m.Step(c, Ev(types.MsgPowerOff))
	if m.State() != "A" {
		t.Fatalf("reset should return to A, got %s", m.State())
	}
}

func TestGuards(t *testing.T) {
	spec := &Spec{
		Name: "guarded",
		Init: "A",
		Vars: map[string]int{"allow": 0},
		Transitions: []Transition{
			{Name: "gated", From: "A", On: types.MsgPowerOn, To: "B",
				Guard: func(c Ctx, e Event) bool { return c.Get("allow") == 1 }},
		},
	}
	m := New(spec)
	c := newTestCtx()
	if _, ok := m.Step(c, Ev(types.MsgPowerOn)); ok {
		t.Fatal("guard should block transition")
	}
	m.SetVar("allow", 1)
	if _, ok := m.Step(c, Ev(types.MsgPowerOn)); !ok {
		t.Fatal("guard should allow transition")
	}
}

func TestEnabledMultipleBranches(t *testing.T) {
	spec := &Spec{
		Name: "branchy",
		Init: "A",
		Transitions: []Transition{
			{Name: "b1", From: "A", On: types.MsgPowerOn, To: "B"},
			{Name: "b2", From: "A", On: types.MsgPowerOn, To: "C"},
			{Name: "b3", From: "A", On: types.MsgPowerOff, To: "D"},
		},
	}
	m := New(spec)
	c := newTestCtx()
	en := m.Enabled(c, Ev(types.MsgPowerOn))
	if len(en) != 2 {
		t.Fatalf("Enabled = %v, want 2 branches", en)
	}
	// Runtime Step takes the first branch (priority order).
	tr, _ := m.Step(c, Ev(types.MsgPowerOn))
	if tr.Name != "b1" {
		t.Fatalf("Step took %s, want b1", tr.Name)
	}
	// Apply can take the second branch explicitly.
	m2 := New(spec)
	tr2 := m2.Apply(c, Ev(types.MsgPowerOn), en[1])
	if tr2.Name != "b2" || m2.State() != "C" {
		t.Fatalf("Apply branch 2: %s state=%s", tr2.Name, m2.State())
	}
}

func TestGlobalScoping(t *testing.T) {
	spec := &Spec{
		Name: "glob",
		Init: "A",
		Transitions: []Transition{
			{Name: "t", From: "A", On: types.MsgPowerOn, To: Same,
				Action: func(c Ctx, e Event) {
					c.Set("local", 7)
					c.Set("g.shared", 9)
				}},
		},
	}
	m := New(spec)
	c := newTestCtx()
	m.Step(c, Ev(types.MsgPowerOn))
	if m.Var("local") != 7 {
		t.Fatalf("local var = %d, want 7", m.Var("local"))
	}
	if c.globals["g.shared"] != 9 {
		t.Fatalf("global = %d, want 9", c.globals["g.shared"])
	}
	if m.Var("g.shared") != 0 {
		t.Fatal("global leaked into machine-local vars")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(toggleSpec())
	c := newTestCtx()
	m.Step(c, Ev(types.MsgPowerOn))
	n := m.Clone()
	n.Step(c, Ev(types.MsgPowerOff))
	n.SetVar("count", 99)
	if m.State() != "ON" || m.Var("count") != 1 {
		t.Fatalf("clone mutated original: state=%s count=%d", m.State(), m.Var("count"))
	}
	if n.State() != "OFF" || n.Var("count") != 99 {
		t.Fatalf("clone state wrong: state=%s count=%d", n.State(), n.Var("count"))
	}
}

func TestEncodeCanonical(t *testing.T) {
	a := New(toggleSpec())
	b := New(toggleSpec())
	if !bytes.Equal(a.Encode(nil), b.Encode(nil)) {
		t.Fatal("identical machines encode differently")
	}
	c := newTestCtx()
	a.Step(c, Ev(types.MsgPowerOn))
	if bytes.Equal(a.Encode(nil), b.Encode(nil)) {
		t.Fatal("different states encode identically")
	}
	b.Step(c, Ev(types.MsgPowerOn))
	if !bytes.Equal(a.Encode(nil), b.Encode(nil)) {
		t.Fatal("re-converged machines encode differently")
	}
}

// Property: for any sequence of toggle events, the machine's count
// variable equals the number of OFF→ON transitions actually taken, and
// the final state is ON exactly when the last taken transition was "on".
func TestQuickToggleInvariant(t *testing.T) {
	f := func(events []bool) bool {
		m := New(toggleSpec())
		c := newTestCtx()
		ons := 0
		lastTaken := ""
		for _, on := range events {
			e := Ev(types.MsgPowerOff)
			if on {
				e = Ev(types.MsgPowerOn)
			}
			if tr, ok := m.Step(c, e); ok {
				lastTaken = tr.Name
				if tr.Name == "on" {
					ons++
				}
			}
		}
		wantON := lastTaken == "on"
		return m.Var("count") == ons && (m.State() == "ON") == wantON
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode is injective over (state, count) pairs reachable in
// the toggle machine, and Clone preserves encoding.
func TestQuickEncodeCloneAgree(t *testing.T) {
	f := func(events []bool) bool {
		m := New(toggleSpec())
		c := newTestCtx()
		for _, on := range events {
			if on {
				m.Step(c, Ev(types.MsgPowerOn))
			} else {
				m.Step(c, Ev(types.MsgPowerOff))
			}
		}
		return bytes.Equal(m.Encode(nil), m.Clone().Encode(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetVarNewVariableEncodes(t *testing.T) {
	m := New(toggleSpec())
	before := m.Encode(nil)
	m.SetVar("extra", 5)
	after := m.Encode(nil)
	if bytes.Equal(before, after) {
		t.Fatal("newly declared variable not reflected in encoding")
	}
}

func TestEvHelpers(t *testing.T) {
	e := Ev(types.MsgAttachRequest)
	if e.Kind() != types.MsgAttachRequest {
		t.Fatalf("Ev kind = %v", e.Kind())
	}
	msg := types.NewMessage(types.MsgAttachReject, types.ProtoEMM).WithCause(types.CauseImplicitDetach)
	e2 := EvMsg(msg)
	if e2.Msg.Cause != types.CauseImplicitDetach || e2.Msg.System != types.Sys4G {
		t.Fatalf("EvMsg lost fields: %+v", e2.Msg)
	}
	if e2.String() == "" {
		t.Fatal("event String empty")
	}
}

// TestStateOrdinalEscape: every control state encodes distinctly,
// including states the spec never mentions, which take the escape
// ordinal and never alias ordinal 0 (the first sorted state).
func TestStateOrdinalEscape(t *testing.T) {
	spec := toggleSpec()
	seen := map[string]State{}
	for _, st := range append(spec.States(), "", "NOT-IN-SPEC", State(spec.States()[0]+"x")) {
		m := New(spec)
		m.SetState(st)
		enc := string(m.Encode(nil))
		if prev, dup := seen[enc]; dup {
			t.Fatalf("states %q and %q encode identically", prev, st)
		}
		seen[enc] = st
	}
}
