package check

import (
	"testing"

	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

type alwaysProp struct{}

func (alwaysProp) Name() string                          { return "Always" }
func (alwaysProp) Check(*model.World, model.Step) string { return "always violated" }

// TestViolationPathIsolation captures a violation and then mutates the
// frontier path it was built from — in place and through the shared
// backing array — the way both engines recycle path slices while
// exploring sibling branches. The stored counterexample must be a deep
// copy, untouched by any of it.
func TestViolationPathIsolation(t *testing.T) {
	w := counterWorld(t)

	// A frontier path with spare capacity and per-step notes, exactly
	// the shape appendPath hands to checkProps.
	path := make([]model.Step, 2, 8)
	path[0] = model.Step{Kind: model.StepEnv, Proc: "C", Label: "inc",
		Msg:   types.Message{Kind: types.MsgUserMove},
		Notes: []string{"original note 0"}}
	path[1] = model.Step{Kind: model.StepEnv, Proc: "C", Label: "inc",
		Msg:   types.Message{Kind: types.MsgUserMove},
		Notes: []string{"original note 1"}}

	res := &Result{Covered: make(map[string]int)}
	seen := make(map[violKey]struct{})
	if !checkProps(w, path[1], path, []Property{alwaysProp{}}, seen, res) {
		t.Fatal("property did not trigger")
	}
	if len(res.Violations) != 1 {
		t.Fatalf("got %d violations, want 1", len(res.Violations))
	}

	// Simulate the engine moving on: extend into the spare capacity,
	// rewrite the steps in place, and scribble on the notes.
	_ = append(path, model.Step{Proc: "C", Label: "sibling"})
	path[0].Proc = "CORRUPTED"
	path[0].Label = "corrupted"
	path[1].Notes[0] = "corrupted note"
	path[1].Msg.Kind = types.MsgPowerOff

	got := res.Violations[0].Path
	if len(got) != 2 {
		t.Fatalf("captured path has %d steps, want 2", len(got))
	}
	if got[0].Proc != "C" || got[0].Label != "inc" {
		t.Errorf("step 0 corrupted by frontier reuse: %+v", got[0])
	}
	if got[1].Notes[0] != "original note 1" {
		t.Errorf("step 1 notes corrupted by frontier reuse: %q", got[1].Notes[0])
	}
	if got[1].Msg.Kind != types.MsgUserMove {
		t.Errorf("step 1 message corrupted by frontier reuse: %v", got[1].Msg.Kind)
	}
}
