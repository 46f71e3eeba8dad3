// The snapshot differential oracle: campaigns forked from copy-on-write
// snapshots must be byte-identical — reports, summaries, triage
// signatures, and trace spans modulo wall-clock — to campaigns that
// replay every run from t=0. These tests live in the external package
// because they build their fixtures through core's analysis and
// profiling phases, and core imports trigger.
package trigger_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
	"repro/internal/triage"
	"repro/internal/trigger"
)

// oracleScale reads the CT_ORACLE_SCALE override (nightly CI runs the
// differential oracle at a larger cluster scale than the per-commit
// default of 1).
func oracleScale(t *testing.T) int {
	t.Helper()
	s := os.Getenv("CT_ORACLE_SCALE")
	if s == "" {
		return 1
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		t.Fatalf("CT_ORACLE_SCALE=%q: want a positive integer", s)
	}
	return n
}

// snapshotFixture runs the analysis and profiling phases for r and
// returns a sequential Tester plus the profiled dynamic points.
func snapshotFixture(t *testing.T, r cluster.Runner, seed int64, scale int) (*trigger.Tester, []probe.DynPoint) {
	t.Helper()
	opts := core.Options{Seed: seed, Scale: scale}
	res, matcher := core.AnalysisPhase(r, opts)
	core.ProfilePhase(r, res, opts)
	return &trigger.Tester{
		Config:   campaign.Config{Workers: 1},
		Runner:   r,
		Analysis: res.Analysis,
		Matcher:  matcher,
		Baseline: trigger.MeasureBaseline(r, seed, scale, 3, 0),
		Seed:     seed,
		Scale:    scale,
	}, res.Dynamic.Points
}

// diffCampaigns runs the same campaign twice — full-replay and
// snapshot-forked — and demands identical reports, summaries and triage
// signatures. The Tester is restored to its no-snapshots state.
func diffCampaigns(t *testing.T, tester *trigger.Tester, plan *trigger.SnapshotPlan, points []probe.DynPoint) {
	t.Helper()
	tester.Snapshots = nil
	legacy := tester.Campaign(points)
	tester.Snapshots = plan
	snap := tester.Campaign(points)
	tester.Snapshots = nil

	if len(legacy) != len(snap) {
		t.Fatalf("%d legacy reports vs %d snapshot reports", len(legacy), len(snap))
	}
	sys := tester.Runner.Name()
	for i := range legacy {
		if !reflect.DeepEqual(legacy[i], snap[i]) {
			t.Fatalf("report %d (%s) diverged:\nlegacy   %+v\nsnapshot %+v",
				i, points[i].Key(), legacy[i], snap[i])
		}
		li := triage.FromRunRecord(trigger.RunRecordOf(sys, "test", i, tester.Seed, tester.Scale, legacy[i]))
		si := triage.FromRunRecord(trigger.RunRecordOf(sys, "test", i, tester.Seed, tester.Scale, snap[i]))
		if !reflect.DeepEqual(li, si) {
			t.Fatalf("triage record %d diverged:\nlegacy   %+v\nsnapshot %+v", i, li, si)
		}
	}
	if ls, ss := trigger.Summarize(legacy), trigger.Summarize(snap); !reflect.DeepEqual(ls, ss) {
		t.Fatalf("summaries diverged:\nlegacy   %+v\nsnapshot %+v", ls, ss)
	}
}

// TestSnapshotCampaignsMatchLegacyEverySystem is the differential
// acceptance oracle: on all seven systems, the snapshot-forked campaign
// must reproduce the full-replay campaign exactly. One extra case runs
// yarn at scale 6, the longest timeline forked per commit.
func TestSnapshotCampaignsMatchLegacyEverySystem(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential campaigns on all systems")
	}
	check := func(t *testing.T, r cluster.Runner, scale int) {
		tester, points := snapshotFixture(t, r, 11, scale)
		if len(points) == 0 {
			t.Fatal("profiling collected no dynamic points")
		}
		plan := tester.BuildSnapshotPlan()
		if plan.Points() == 0 {
			t.Fatal("reference pass captured no points")
		}
		diffCampaigns(t, tester, plan, points)
	}
	scale := oracleScale(t)
	for _, r := range append(all.Runners(), all.Extensions()...) {
		r := r
		t.Run(r.Name(), func(t *testing.T) { check(t, r, scale) })
	}
	t.Run("yarn-scale6", func(t *testing.T) {
		r, err := all.ByName("yarn")
		if err != nil {
			t.Fatal(err)
		}
		check(t, r, 6)
	})
}

// TestRunPathTierCensus counts which path serves each run of the crash,
// recovery and partition campaigns on all seven systems, at seeds
// {11, 1009} and scales {1, 4, 32}, over one snapshot plan per (system,
// seed, scale). Every plan that saw a point fire must hold a clone rung,
// no fence may trip, and every run must be a clone fork or a synthesized
// NotHit report, so none reaches the full run. The rung at boundary 0
// is what serves points that fire in the run's first dispatched event
// (two per campaign on zookeeper).
func TestRunPathTierCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns on all systems")
	}
	counters := [...]string{
		"crashtuner_clone_forks_total",
		"crashtuner_snapshot_synthesized_total",
		"crashtuner_clone_fallbacks_total",
	}
	read := func() (v [len(counters)]uint64) {
		for i, name := range counters {
			v[i] = obs.Default.Counter(name).Value()
		}
		return v
	}
	families := []struct {
		name string
		set  func(*trigger.Tester)
	}{
		{"crash", func(*trigger.Tester) {}},
		{"recovery", func(ft *trigger.Tester) { ft.Recovery = &trigger.RecoveryOptions{RestartDelay: sim.Second} }},
		{"partition", func(ft *trigger.Tester) { ft.Partition = &trigger.PartitionOptions{} }},
	}
	for _, r := range append(all.Runners(), all.Extensions()...) {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			var clones, rungs uint64
			for _, seed := range []int64{11, 1009} {
				for _, scale := range []int{1, 4, 32} {
					tester, points := snapshotFixture(t, r, seed, scale)
					plan := tester.BuildSnapshotPlan()
					if plan.Points() > 0 && plan.Rungs() == 0 {
						t.Errorf("seed %d scale %d: %d hit points but no clone rung", seed, scale, plan.Points())
					}
					rungs += uint64(plan.Rungs())
					tester.Snapshots = plan
					for _, fam := range families {
						ft := *tester
						fam.set(&ft)
						before := read()
						ft.Campaign(points)
						after := read()
						clone, synth, fallbacks := after[0]-before[0], after[1]-before[1], after[2]-before[2]
						clones += clone
						full := uint64(len(points)) - clone - synth
						if fallbacks != 0 || full != 0 {
							t.Errorf("seed %d scale %d %s: %d points = %d clone + %d synthesized + %d full runs, %d clone fallbacks; want clone forks and synthesized only",
								seed, scale, fam.name, len(points), clone, synth, full, fallbacks)
						}
					}
				}
			}
			t.Logf("%d clone forks over 6 plans holding %d rungs", clones, rungs)
		})
	}
}

// TestPartitionCampaignsMatchLegacyEverySystem is the partition-family
// variant of the differential acceptance oracle: on all seven systems,
// the snapshot-forked partition campaign (cuts instead of crashes,
// judged by the split-brain / stale-read / never-heals oracles) must
// reproduce the full-replay partition campaign exactly.
func TestPartitionCampaignsMatchLegacyEverySystem(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential campaigns on all systems")
	}
	scale := oracleScale(t)
	for _, r := range append(all.Runners(), all.Extensions()...) {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			tester, points := snapshotFixture(t, r, 11, scale)
			if len(points) == 0 {
				t.Fatal("profiling collected no dynamic points")
			}
			tester.Partition = &trigger.PartitionOptions{}
			plan := tester.BuildSnapshotPlan()
			if plan.Points() == 0 {
				t.Fatal("reference pass captured no points")
			}
			diffCampaigns(t, tester, plan, points)
		})
	}
}

// TestSnapshotRecoverySchedulesMatchLegacy forks randomized
// crash/shutdown/restart schedules from one snapshot plan: the plan
// captures only the fault-free prefix, so a single reference pass must
// serve every recovery configuration — restart delays, second faults of
// either kind — and reproduce each full-replay campaign exactly.
func TestSnapshotRecoverySchedulesMatchLegacy(t *testing.T) {
	tester, points := snapshotFixture(t, &toysys.Runner{}, 11, 1)
	plan := tester.BuildSnapshotPlan()
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 4; k++ {
		rc := &trigger.RecoveryOptions{
			RestartDelay: sim.Time(50+rng.Intn(300)) * sim.Millisecond,
		}
		if k%2 == 1 {
			rc.SecondFaultDelay = sim.Time(1+rng.Intn(40)) * sim.Millisecond
			if rng.Intn(2) == 1 {
				rc.SecondFaultKind = sim.FaultShutdown
			}
		}
		tester.Recovery = rc
		diffCampaigns(t, tester, plan, points)
	}
	tester.Recovery = nil
}

// TestSnapshotRandomTargetMatchesLegacy covers the §3.2.2 ablation: the
// random-victim draw happens at the same engine RNG state in a fork as
// in a full run, so the ablation campaigns must match too.
func TestSnapshotRandomTargetMatchesLegacy(t *testing.T) {
	tester, points := snapshotFixture(t, &toysys.Runner{}, 11, 1)
	tester.RandomTarget = true
	plan := tester.BuildSnapshotPlan()
	diffCampaigns(t, tester, plan, points)
}

// TestSnapshotTraceMatchesLegacyModuloWall: with a sequential campaign
// traced both ways, the JSONL spans must be identical once wall-clock
// fields (wall_ms, the campaign start timestamp) are stripped — same
// spans, same nesting, same simulated durations, same outcomes.
func TestSnapshotTraceMatchesLegacyModuloWall(t *testing.T) {
	tester, points := snapshotFixture(t, &toysys.Runner{}, 11, 1)
	plan := tester.BuildSnapshotPlan() // no sink: no snapshot phase span

	trace := func(p *trigger.SnapshotPlan) []string {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		tester.Sink = tr
		tester.Snapshots = p
		tester.Campaign(points)
		tester.Sink = nil
		tester.Snapshots = nil
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("trace invalid: %v", err)
		}
		var out []string
		sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatal(err)
			}
			delete(m, "wall_ms")
			delete(m, "start")
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}

	legacy := trace(nil)
	snap := trace(plan)
	if len(legacy) != len(snap) {
		t.Fatalf("%d legacy trace lines vs %d snapshot lines", len(legacy), len(snap))
	}
	for i := range legacy {
		if legacy[i] != snap[i] {
			t.Fatalf("trace line %d diverged:\nlegacy   %s\nsnapshot %s", i, legacy[i], snap[i])
		}
	}
}
