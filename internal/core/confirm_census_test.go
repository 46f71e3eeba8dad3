package core_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/triage"
	"repro/internal/trigger"
)

// failingRecords collects the triage records of a campaign's failing
// runs in memory.
type failingRecords struct {
	mu   sync.Mutex
	recs []triage.Record
}

func (f *failingRecords) Record(rr campaign.RunRecord) {
	if !rr.Failing {
		return
	}
	f.mu.Lock()
	f.recs = append(f.recs, triage.FromRunRecord(rr))
	f.mu.Unlock()
}

// TestConfirmationCensus: the seed reaches only the injector, so one
// replay of a failing record through NewConfirmExecutor, at the
// record's own seed and under its campaign's fault parameters, is the
// record again. The census covers every failing record of five campaign
// families on all seven systems at seeds {11, 1009}.
func TestConfirmationCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns on all systems")
	}
	families := []struct {
		name string
		opts core.Options
	}{
		{"crash", core.Options{}},
		{"recovery", core.Options{Recovery: &trigger.RecoveryOptions{RestartDelay: sim.Second}}},
		{"partition", core.Options{Partition: &trigger.PartitionOptions{}}},
		{"guided", core.Options{Partition: &trigger.PartitionOptions{Guided: true}}},
		{"random-target", core.Options{RandomTarget: true}},
	}
	cache := core.NewArtifactCache()
	total, reproduced := 0, 0
	for _, fam := range families {
		records, same := 0, 0
		for _, r := range append(all.Runners(), all.Extensions()...) {
			for _, seed := range []int64{11, 1009} {
				opts := fam.opts
				opts.Seed, opts.Scale = seed, 1
				col := &failingRecords{}
				opts.Recorder = col
				cache.Run(r, opts)
				opts.Recorder = nil
				exec := core.NewConfirmExecutor(r, cache, opts)
				for _, rec := range col.recs {
					got := exec(rec)
					want := rec
					want.Campaign, want.Run = "triage", 0
					if reflect.DeepEqual(got, want) {
						same++
					} else {
						t.Errorf("%s %s seed %d: replay of run %d differs:\n  got:  %+v\n  want: %+v", fam.name, r.Name(), seed, rec.Run, got, want)
					}
					records++
				}
			}
		}
		if records == 0 {
			t.Errorf("%s: no failing records to replay", fam.name)
		}
		t.Logf("%s: %d of %d replays reproduced their record", fam.name, same, records)
		total += records
		reproduced += same
	}
	t.Logf("census: %d of %d replays reproduced their record", reproduced, total)
}

// countingRunner counts the runs a pipeline constructs.
type countingRunner struct {
	cluster.Runner
	runs atomic.Int64
}

func (c *countingRunner) NewRun(cfg cluster.Config) cluster.Run {
	c.runs.Add(1)
	return c.Runner.NewRun(cfg)
}

// TestUncachedRunConstructsThreeRuns pins the run budget of an uncached
// pipeline: the recorded fault-free run (which serves the analysis,
// profiler iteration 0, the baseline and the snapshot plan's point
// table), the plan's capture pass, and profiler iteration 1 at twice the
// scale. Every injection run forks from the plan.
func TestUncachedRunConstructsThreeRuns(t *testing.T) {
	for _, r := range append(all.Runners(), all.Extensions()...) {
		for _, scale := range []int{1, 4} {
			cr := &countingRunner{Runner: r}
			core.Run(cr, core.Options{Seed: 11, Scale: scale})
			if got := cr.runs.Load(); got != 3 {
				t.Errorf("%s scale %d: core.Run made %d NewRun calls, want 3", r.Name(), scale, got)
			}
		}
	}
}
