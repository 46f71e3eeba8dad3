package trigger_test

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
	"repro/internal/trigger"
)

// countingRunner counts the runs it builds. With draw set, each run
// draws once from its engine's random stream before it starts, as a
// model that consulted Engine.Rand would.
type countingRunner struct {
	cluster.Runner
	draw bool
	runs int
}

func (c *countingRunner) NewRun(cfg cluster.Config) cluster.Run {
	c.runs++
	run := c.Runner.NewRun(cfg)
	if c.draw {
		run.Engine().Rand().Int63()
	}
	return run
}

// unionOfRuns is the census of runs fault-free runs on seeds seed,
// seed+1, …, each driven by its own MeasureBaseline call.
func unionOfRuns(r cluster.Runner, seed int64, scale, runs int) trigger.Baseline {
	u := trigger.Baseline{Status: cluster.Succeeded, Exceptions: map[string]bool{}, Runs: runs}
	for i := 0; i < runs; i++ {
		b := trigger.MeasureBaseline(r, seed+int64(i), scale, 1, 0)
		if b.Duration > u.Duration {
			u.Duration = b.Duration
		}
		if b.Status != cluster.Succeeded {
			u.Status = b.Status
		}
		for k := range b.Exceptions {
			u.Exceptions[k] = true
		}
	}
	return u
}

// TestMeasureBaselineStopsOnSeedInvariantRun: a fault-free run that drew
// nothing from its random stream is the run on every seed, so a
// three-run census drives it once and still equals the union of three
// separately driven runs. A run that draws keeps driving every seed.
func TestMeasureBaselineStopsOnSeedInvariantRun(t *testing.T) {
	for _, r := range append(all.Runners(), all.Extensions()...) {
		for _, scale := range []int{1, 4} {
			c := &countingRunner{Runner: r}
			got := trigger.MeasureBaseline(c, 11, scale, 3, 0)
			if want := unionOfRuns(r, 11, scale, 3); !reflect.DeepEqual(got, want) {
				t.Errorf("%s scale %d: census %+v, union of three runs %+v", r.Name(), scale, got, want)
			}
			if c.runs != 1 {
				t.Errorf("%s scale %d: drove %d runs, want 1", r.Name(), scale, c.runs)
			}
		}
	}

	c := &countingRunner{Runner: &toysys.Runner{}, draw: true}
	got := trigger.MeasureBaseline(c, 11, 1, 3, sim.Hour)
	if c.runs != 3 {
		t.Errorf("a runner that draws: drove %d runs, want 3", c.runs)
	}
	if got.Runs != 3 {
		t.Errorf("Runs = %d, want 3", got.Runs)
	}
}
