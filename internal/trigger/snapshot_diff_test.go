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

// TestRunPathTierCensus counts which fork tier serves each run of the
// crash, recovery and partition campaigns on all seven systems, at seed
// 11 and scale 1 over one snapshot plan per system. No fence may trip,
// and every run must be a clone fork, a lean replay or a synthesized
// NotHit report, so none reaches the legacy full run. Lean replay serves
// exactly the hit points whose first hit precedes every clone rung: two
// per campaign on zookeeper, none on the other systems.
func TestRunPathTierCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns on all systems")
	}
	counters := [...]string{
		"crashtuner_clone_forks_total",
		"crashtuner_snapshot_forks_total",
		"crashtuner_snapshot_synthesized_total",
		"crashtuner_clone_fallbacks_total",
		"crashtuner_snapshot_invalidations_total",
	}
	read := func() (v [len(counters)]uint64) {
		for i, name := range counters {
			v[i] = obs.Default.Counter(name).Value()
		}
		return v
	}
	wantLean := map[string]int{"zookeeper": 2}
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
			tester, points := snapshotFixture(t, r, 11, 1)
			tester.Snapshots = tester.BuildSnapshotPlan()
			lean := tester.Snapshots.LeanPoints(points)
			if lean != wantLean[r.Name()] {
				t.Errorf("%d hit points precede every clone rung, want %d", lean, wantLean[r.Name()])
			}
			for _, fam := range families {
				ft := *tester
				fam.set(&ft)
				before := read()
				ft.Campaign(points)
				after := read()
				var d [len(counters)]uint64
				for i := range d {
					d[i] = after[i] - before[i]
				}
				clone, leanForks, synth, fallbacks, invalid := d[0], d[1], d[2], d[3], d[4]
				t.Logf("%s: %d points = %d clone + %d lean + %d synthesized", fam.name, len(points), clone, leanForks, synth)
				if fallbacks != 0 || invalid != 0 {
					t.Errorf("%s: %d clone fallbacks and %d snapshot invalidations, want none", fam.name, fallbacks, invalid)
				}
				if got := clone + leanForks + synth; got != uint64(len(points)) {
					t.Errorf("%s: %d clone + %d lean + %d synthesized runs for %d points; the rest took the legacy full run",
						fam.name, clone, leanForks, synth, len(points))
				}
				if leanForks != uint64(lean) {
					t.Errorf("%s: %d lean replays, want the %d points no rung precedes", fam.name, leanForks, lean)
				}
			}
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

// TestCloneForksMatchLeanReplayEverySystem is the clone-vs-replay
// equivalence oracle: on all seven systems, forking every crash point by
// Engine.Clone (resume a deep-copied run mid-flight) and by lean replay
// (re-drive the prefix from t=0) must produce byte-identical reports and
// triage signatures. Every system migrated to the keyed-timer API, so
// every plan must actually capture clone rungs — a system silently
// falling back to replay-only here is a migration regression.
func TestCloneForksMatchLeanReplayEverySystem(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential campaigns on all systems")
	}
	scale := oracleScale(t)
	for _, r := range append(all.Runners(), all.Extensions()...) {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			tester, points := snapshotFixture(t, r, 11, scale)
			plan := tester.BuildSnapshotPlan()
			if plan.Points() > 0 && plan.Rungs() == 0 {
				t.Fatalf("%s captured no clone rungs: Cloneable regression", r.Name())
			}
			tester.Snapshots = plan
			clone := tester.Campaign(points)
			tester.NoClone = true // same plan, but forks skip the rungs
			lean := tester.Campaign(points)
			tester.NoClone = false
			tester.Snapshots = nil

			if len(clone) != len(lean) {
				t.Fatalf("%d clone reports vs %d lean-replay reports", len(clone), len(lean))
			}
			sys := r.Name()
			for i := range clone {
				if !reflect.DeepEqual(clone[i], lean[i]) {
					t.Fatalf("report %d (%s) diverged:\nclone %+v\nlean  %+v",
						i, points[i].Key(), clone[i], lean[i])
				}
				ci := triage.FromRunRecord(trigger.RunRecordOf(sys, "test", i, tester.Seed, tester.Scale, clone[i]))
				li := triage.FromRunRecord(trigger.RunRecordOf(sys, "test", i, tester.Seed, tester.Scale, lean[i]))
				if !reflect.DeepEqual(ci, li) {
					t.Fatalf("triage record %d diverged:\nclone %+v\nlean  %+v", i, ci, li)
				}
			}
			if cs, ls := trigger.Summarize(clone), trigger.Summarize(lean); !reflect.DeepEqual(cs, ls) {
				t.Fatalf("summaries diverged:\nclone %+v\nlean  %+v", cs, ls)
			}
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
