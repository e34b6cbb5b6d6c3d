package core

import (
	"testing"

	"cnetverifier/internal/names"
)

// TestPinnedStateCounts pins the absolute number of distinct states the
// exact search finds on the cnetverify worlds. The other equivalence
// gates compare configurations of one encoder with each other, so an
// encoding that wrongly merged two states would pass all of them; here
// it shows as a drop below the pinned count. (An encoding that split
// one state in two shows as a rise.) The 3-UE worlds (39,304 states
// plain, 7,140 under symmetry, both multiue and multiue-shared) are
// pinned inside TestSymViolationSetsMatchMultiUE, which screens them
// anyway; timed S1 and S6 (205,768 and 153,915 states) and the 4-worker
// symmetric run are pinned by ci.sh.
func TestPinnedStateCounts(t *testing.T) {
	type row struct {
		world      string
		mk         func() Scoped
		plain, sym int
		// timed rows also pin the NAS-timed plain count, which equals
		// the untimed one on these worlds.
		timed bool
	}
	rows := []row{
		{"s1", func() Scoped { return S1World(false) }, 457, 457, false},
		{"s2", func() Scoped { return S2World(false) }, 2700, 2700, true},
		{"s3", func() Scoped { return S3World(false, names.SwitchReselect) }, 2370, 2370, true},
		{"s4cs", func() Scoped { return S4CSWorld(false) }, 80, 80, true},
		{"s4ps", func() Scoped { return S4PSWorld(false) }, 34, 34, true},
		{"s6", func() Scoped { return S6World(false) }, 6166, 6166, false},
	}
	for _, r := range rows {
		if got := runSym(t, r.mk(), false, false, 1).States; got != r.plain {
			t.Errorf("%s: %d states, pinned %d", r.world, got, r.plain)
		}
		if got := runSym(t, r.mk(), false, true, 1).States; got != r.sym {
			t.Errorf("%s -sym: %d states, pinned %d", r.world, got, r.sym)
		}
		if !r.timed {
			continue
		}
		ts, err := WithTiming(r.mk(), TimingNAS)
		if err != nil {
			t.Fatalf("%s: WithTiming: %v", r.world, err)
		}
		if got := runSym(t, ts, false, false, 1).States; got != r.plain {
			t.Errorf("%s -timing: %d states, pinned %d", r.world, got, r.plain)
		}
	}
}
