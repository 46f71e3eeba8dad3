// The recorded-run differential oracle: a pipeline whose analysis,
// profiler iteration 0, baseline and snapshot-plan point table all read
// one recorded fault-free run must equal the pipeline that drives each
// of those as its own pass.
package trigger_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// separatePasses is the pipeline with one fault-free pass per consumer:
// the analysis run, both profiler iterations, the baseline run and the
// snapshot plan's own reference pass (core.TestPhase outside a cache).
func separatePasses(r cluster.Runner, opts core.Options) *core.Result {
	res, matcher := core.AnalysisPhase(r, opts)
	core.ProfilePhase(r, res, opts)
	core.TestPhase(r, matcher, res, opts)
	return res
}

// diffResults demands DeepEqual pipeline outputs.
func diffResults(t *testing.T, name string, got, want *core.Result) {
	t.Helper()
	for _, f := range []struct {
		field     string
		got, want any
	}{
		{"Static", got.Static, want.Static},
		{"Dynamic", got.Dynamic, want.Dynamic},
		{"Baseline", got.Baseline, want.Baseline},
		{"Reports", got.Reports, want.Reports},
		{"Summary", got.Summary, want.Summary},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: %s differs:\n  recorded: %+v\n  passes:   %+v", name, f.field, f.got, f.want)
		}
	}
}

// diffCachedPlan compares the plan cache.Run installed for opts' base
// scale with the same Tester's plan built by its own reference pass, and
// returns the cached plan.
func diffCachedPlan(t *testing.T, cache *core.ArtifactCache, r cluster.Runner, opts core.Options, baseline trigger.Baseline) *trigger.SnapshotPlan {
	t.Helper()
	res, matcher := cache.AnalysisPhase(r, opts)
	tester := &trigger.Tester{
		Runner:   r,
		Analysis: res.Analysis,
		Matcher:  matcher,
		Baseline: baseline,
		Seed:     opts.Seed,
		Scale:    opts.Scale,
		MaxSteps: opts.MaxSteps,
	}
	plans := cache.Plans()
	plan := cache.SnapshotPlan(tester)
	if cache.Plans() != plans {
		t.Fatalf("%s: cache.Run installed no plan at the base scale", r.Name())
	}
	if d := trigger.DiffPlans(plan, tester.BuildSnapshotPlan(), trigger.StashValues(tester)); d != "" {
		t.Errorf("%s seed %d scale %d max-steps %d deadline %v: cached plan differs from its own reference pass: %s",
			r.Name(), opts.Seed, opts.Scale, opts.MaxSteps, opts.Deadline, d)
	}
	return plan
}

// TestRecordedPipelineMatchesSeparatePasses: on seven systems × seeds
// {11, 1009} × scales {1, 4, 32} (plus CT_ORACLE_SCALE) × crash,
// recovery and partition campaigns, the recorded pipeline's Static,
// Dynamic, Baseline, Reports and Summary equal the separate passes', its
// base-scale plan is served from the record and equals the plan's own
// reference pass point by point, and no clone fork falls back.
func TestRecordedPipelineMatchesSeparatePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipelines on all systems")
	}
	scales := []int{1, 4, 32}
	if s := oracleScale(t); s != 1 {
		scales = append(scales, s)
	}
	families := []struct {
		name string
		opts core.Options
	}{
		{"crash", core.Options{}},
		{"recovery", core.Options{Recovery: &trigger.RecoveryOptions{RestartDelay: sim.Second}}},
		{"partition", core.Options{Partition: &trigger.PartitionOptions{}}},
	}
	fallbacks := obs.Default.Counter("crashtuner_clone_fallbacks_total")
	before := fallbacks.Value()
	plans, recorded := 0, 0
	for _, r := range append(all.Runners(), all.Extensions()...) {
		for _, seed := range []int64{11, 1009} {
			for _, scale := range scales {
				cache := core.NewArtifactCache()
				for _, fam := range families {
					opts := fam.opts
					opts.Seed, opts.Scale = seed, scale
					got := cache.Run(r, opts)
					want := separatePasses(r, opts)
					name := r.Name() + " " + fam.name
					diffResults(t, name, got, want)
					if fam.name != "crash" {
						continue
					}
					plans++
					if trigger.PlanFromRecord(diffCachedPlan(t, cache, r, opts, got.Baseline)) {
						recorded++
					} else {
						t.Errorf("%s seed %d scale %d: the base-scale plan ran its own reference pass", r.Name(), seed, scale)
					}
				}
			}
		}
	}
	t.Logf("census: %d of %d base-scale plans served from the record", recorded, plans)
	if n := fallbacks.Value() - before; n != 0 {
		t.Errorf("%d clone forks fell back to the full run", n)
	}
}

// TestRecordedPlanRefusals forces each refusal of the record — a
// fault-free run cut by Options.Deadline, a binding Options.MaxSteps,
// and a plan at another scale than the record's, as the final-scale
// retry asks for — and checks that the plan then runs its own reference
// pass and the pipeline still equals the separate passes.
func TestRecordedPlanRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipelines on all systems")
	}
	for _, r := range append(all.Runners(), all.Extensions()...) {
		full := core.Run(r, core.Options{Seed: 11})
		rec, _ := trigger.Record(r, 11, 1, 0)
		steps := trigger.RecordedSteps(rec)
		for _, c := range []struct {
			name   string
			opts   core.Options
			refuse bool
		}{
			{"deadline", core.Options{Deadline: full.Baseline.Duration / 2}, true},
			{"max-steps", core.Options{MaxSteps: steps / 2}, true},
			// The budget runs out on the record's last event, so the
			// reference pass ends exhausted and the record did not.
			{"max-steps-at-end", core.Options{MaxSteps: steps}, true},
			{"max-steps-above-end", core.Options{MaxSteps: steps + 1}, false},
		} {
			opts := c.opts
			opts.Seed, opts.Scale = 11, 1
			cache := core.NewArtifactCache()
			got := cache.Run(r, opts)
			diffResults(t, r.Name()+" "+c.name, got, separatePasses(r, opts))
			if recorded := trigger.PlanFromRecord(diffCachedPlan(t, cache, r, opts, got.Baseline)); recorded == c.refuse {
				t.Errorf("%s %s: plan served from the record: %v, want %v", r.Name(), c.name, recorded, !c.refuse)
			}
		}

		// The retry tester of TestPhase: the base-scale record, a Tester
		// at twice the scale.
		res, matcher := core.AnalysisPhase(r, core.Options{Seed: 11})
		rec, logs := trigger.Record(r, 11, 1, 0)
		rec.IndexStash(matcher, res.Analysis, matcher.ParseAll(logs).Matches)
		retry := &trigger.Tester{
			Runner:   r,
			Analysis: res.Analysis,
			Matcher:  matcher,
			Baseline: full.Baseline,
			Seed:     11,
			Scale:    2,
		}
		plan := retry.SnapshotPlanFrom(rec)
		if trigger.PlanFromRecord(plan) {
			t.Errorf("%s retry: the scale-2 plan was served from the scale-1 record", r.Name())
		}
		if d := trigger.DiffPlans(plan, retry.BuildSnapshotPlan(), trigger.StashValues(retry)); d != "" {
			t.Errorf("%s retry: plan differs from its reference pass: %s", r.Name(), d)
		}
		retry.Snapshots = plan
		forked := retry.Campaign(full.Dynamic.Points)
		retry.Snapshots = nil
		if whole := retry.Campaign(full.Dynamic.Points); !reflect.DeepEqual(forked, whole) {
			t.Errorf("%s retry: campaign on the refused plan differs from full runs", r.Name())
		}
	}
}
