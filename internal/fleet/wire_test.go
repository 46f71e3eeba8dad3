// Wire-contract pins: the JSON encodings of Job and Result are what
// coordinators, workers and per-shard checkpoint files agree on, so the
// round-trips are fuzzed and the cross-package invariants (outcome
// strings, record flattening) are pinned against the trigger here.
package fleet_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/crashpoint"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/trigger"
)

// FuzzJobJSON pins the Job wire encoding: marshal → unmarshal is the
// identity for every value, including the full injection-scenario
// grammar ("pre-read", "pre-read+partition", "pre-read+partition@42").
func FuzzJobJSON(f *testing.F) {
	f.Add("yarn", "partition", 3, int64(11), 2, "yarn.RM.registerNode#4", "pre-read+partition@42", "a<b<c")
	f.Add("toysys", "test", 0, int64(-1), 1, "toysys.Master.assign#0", "post-write", "")
	f.Add("", "", 0, int64(0), 0, "", "", "")
	f.Fuzz(func(t *testing.T, system, campaign string, run int, seed int64, scale int, point, scenario, stack string) {
		j := fleet.Job{
			System: system, Campaign: campaign, Run: run,
			Seed: seed, Scale: scale,
			Point: point, Scenario: scenario, Stack: stack,
		}
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got fleet.Job
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != j {
			t.Fatalf("job round-trip: %+v -> %s -> %+v", j, b, got)
		}
	})
}

// FuzzResultJSON pins the Result wire encoding the same way. Slice
// fields are built as nil or non-empty (the omitempty fields never
// travel as empty non-nil; Exceptions/Witnesses may, covered by
// TestResultJSONNilVsEmpty).
func FuzzResultJSON(f *testing.F) {
	f.Add("yarn", "pre-read+partition@42", 7, int64(11), 2, "job-failure", true,
		"node1:7001", "crash", int64(1500), "NPE@a,IOE@b", "yarn-1001", "node2:7002",
		true, true, true, uint64(42), "workload failed", "sig-key", int64(10), int64(20))
	f.Add("", "", 0, int64(0), 0, "not-hit", false, "", "", int64(0), "", "", "",
		false, false, false, uint64(0), "", "", int64(0), int64(0))
	f.Fuzz(func(t *testing.T, system, scenario string, run int, seed int64, scale int,
		outcome string, failing bool, target, faultKind string, faultAt int64,
		exc, wit, restarted string, partitioned, healed, guided bool, ordinal uint64,
		reason, sig string, spanWall, spanSim int64) {
		res := fleet.Result{
			Job:         fleet.Job{System: system, Run: run, Seed: seed, Scale: scale, Scenario: scenario},
			Outcome:     outcome,
			Failing:     failing,
			Target:      target,
			Duration:    sim.Time(faultAt) * 2,
			Partitioned: partitioned,
			Healed:      healed,
			Guided:      guided, GuidedOrdinal: ordinal,
			Reason: reason,
			Sig:    sig,
		}
		if faultKind != "" {
			res.Fault = &fleet.Fault{Kind: faultKind, Node: target, At: sim.Time(faultAt)}
		}
		if exc != "" {
			res.Exceptions = strings.Split(exc, ",")
		}
		if wit != "" {
			res.Witnesses = strings.Split(wit, ",")
		}
		if restarted != "" {
			res.Restarted = strings.Split(restarted, ",")
		}
		if spanWall != 0 || spanSim != 0 {
			res.Spans = []fleet.SpanRef{{Phase: "run", Wall: time.Duration(spanWall), Sim: sim.Time(spanSim)}}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got fleet.Result
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("result round-trip:\n  in:  %+v\n  json: %s\n  out: %+v", res, b, got)
		}
	})
}

// TestResultJSONNilVsEmpty pins that an absent exception/witness list
// and an empty one survive the wire distinctly: a checkpoint-restored
// result must equal the freshly executed run it stands in for, and the
// trigger distinguishes "no census ran" from "census found nothing".
func TestResultJSONNilVsEmpty(t *testing.T) {
	for _, res := range []fleet.Result{
		{Outcome: "ok", Exceptions: []string{}, Witnesses: []string{}},
		{Outcome: "ok", Exceptions: nil, Witnesses: nil},
		{Outcome: "ok", Exceptions: []string{}, Witnesses: nil},
	} {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got fleet.Result
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if (got.Exceptions == nil) != (res.Exceptions == nil) || (got.Witnesses == nil) != (res.Witnesses == nil) {
			t.Fatalf("nil-ness lost over the wire: %+v -> %s -> %+v", res, b, got)
		}
	}
}

// TestOutcomeStringsPinned pins the wire outcome strings against the
// trigger's oracle enum: the coordinator plans retry waves off
// OutcomeNotHit and the stall watchdogs emit OutcomeHarnessError, so
// these literals must stay in lock-step with Outcome.String, and every
// outcome must parse back to itself.
func TestOutcomeStringsPinned(t *testing.T) {
	if fleet.OutcomeNotHit != trigger.NotHit.String() {
		t.Errorf("fleet.OutcomeNotHit = %q, trigger.NotHit = %q", fleet.OutcomeNotHit, trigger.NotHit.String())
	}
	if fleet.OutcomeHarnessError != trigger.HarnessError.String() {
		t.Errorf("fleet.OutcomeHarnessError = %q, trigger.HarnessError = %q", fleet.OutcomeHarnessError, trigger.HarnessError.String())
	}
	for o := trigger.Outcome(0); o <= trigger.MaxOutcome; o++ {
		got, ok := trigger.ParseOutcome(o.String())
		if !ok || got != o {
			t.Errorf("ParseOutcome(%q) = (%v, %v), want (%v, true)", o.String(), got, ok, o)
		}
	}
	if _, ok := trigger.ParseOutcome("no-such-outcome"); ok {
		t.Error("ParseOutcome accepted an unknown outcome string")
	}
}

// TestRunRecordAgreement pins that the two record-flattening paths —
// the in-process trigger.RunRecordOf and the wire-side
// fleet.Result.RunRecord — agree field for field, which is what lets a
// fleet-written triage store be byte-identical to a local one.
func TestRunRecordAgreement(t *testing.T) {
	cases := []struct {
		name      string
		campaign  string
		partition bool // campaign plans a partition
		rep       trigger.Report
	}{
		{
			name: "crash with exceptions", campaign: "test",
			rep: trigger.Report{
				Dyn:           probe.DynPoint{Point: ir.PointID("yarn.RM.register#3"), Scenario: crashpoint.PreRead, Stack: "a<b<c"},
				Outcome:       trigger.JobFailure,
				Target:        "node1:7001",
				Injected:      &sim.FaultRecord{At: 1500, Node: "node1:7001", Kind: sim.FaultCrash},
				Duration:      9000,
				NewExceptions: []string{"NPE@yarn.RM.register"},
				Witnesses:     []string{"yarn-1001"},
				Reason:        "container lost",
			},
		},
		{
			name: "not hit", campaign: "test",
			rep: trigger.Report{
				Dyn:     probe.DynPoint{Point: ir.PointID("yarn.RM.remove#1"), Scenario: crashpoint.PostWrite, Stack: "x<y"},
				Outcome: trigger.NotHit,
			},
		},
		{
			name: "guided partition", campaign: "partition", partition: true,
			rep: trigger.Report{
				Dyn:           probe.DynPoint{Point: ir.PointID("zk.Leader.commit#2"), Scenario: crashpoint.PreRead, Stack: "p<q"},
				Outcome:       trigger.SplitBrain,
				Target:        "zk2:2181",
				Injected:      &sim.FaultRecord{At: 400, Node: "zk2:2181", Kind: sim.FaultPartition},
				Partitioned:   true,
				Healed:        true,
				Guided:        true,
				GuidedOrdinal: 42,
			},
		},
		{
			name: "planned partition that never fired", campaign: "partition", partition: true,
			rep: trigger.Report{
				Dyn:     probe.DynPoint{Point: ir.PointID("zk.Leader.commit#2"), Scenario: crashpoint.PreRead, Stack: "p<q"},
				Outcome: trigger.NotHit,
			},
		},
		{
			name: "recovery restart", campaign: "recovery",
			rep: trigger.Report{
				Dyn:       probe.DynPoint{Point: ir.PointID("hdfs.NN.replicate#0"), Scenario: crashpoint.PostWrite, Stack: "m<n"},
				Outcome:   trigger.NeverRejoined,
				Target:    "dn3:5000",
				Injected:  &sim.FaultRecord{At: 2100, Node: "dn3:5000", Kind: sim.FaultCrash},
				Restarted: []sim.NodeID{"dn3:5000"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := fleet.Job{
				System:   "sys",
				Campaign: tc.campaign,
				Run:      5,
				Seed:     11,
				Scale:    2,
				Point:    string(tc.rep.Dyn.Point),
				Scenario: crashpoint.Injection{Scenario: tc.rep.Dyn.Scenario, Partition: tc.partition}.String(),
				Stack:    tc.rep.Dyn.Stack,
			}
			direct := trigger.RunRecordOf("sys", tc.campaign, 5, 11, 2, tc.rep)
			viaWire := trigger.ResultOf(j, tc.rep).RunRecord()
			if !reflect.DeepEqual(direct, viaWire) {
				t.Errorf("record flattening disagrees:\n  RunRecordOf:       %+v\n  Result.RunRecord:  %+v", direct, viaWire)
			}
		})
	}
}

// TestResultReportInvertsResultOf pins the report round-trip the fleet
// path rides on: flattening a report to the wire and rebuilding it
// loses nothing the tables or summaries consume.
func TestResultReportInvertsResultOf(t *testing.T) {
	rep := trigger.Report{
		Dyn:           probe.DynPoint{Point: ir.PointID("yarn.RM.register#3"), Scenario: crashpoint.PreRead, Stack: "a<b<c"},
		Outcome:       trigger.JobFailure,
		Target:        "node1:7001",
		Injected:      &sim.FaultRecord{At: 1500, Node: "node1:7001", Kind: sim.FaultCrash},
		Duration:      9000,
		NewExceptions: []string{"NPE@yarn.RM.register"},
		Witnesses:     []string{"yarn-1001"},
		Restarted:     []sim.NodeID{"node1:7001"},
		Partitioned:   true,
		Healed:        true,
		Reason:        "container lost",
	}
	j := fleet.Job{
		System: "yarn", Campaign: "partition-recovery", Run: 5, Seed: 11, Scale: 2,
		Point:    string(rep.Dyn.Point),
		Scenario: crashpoint.Injection{Scenario: rep.Dyn.Scenario, Partition: true}.String(),
		Stack:    rep.Dyn.Stack,
	}
	got := trigger.ResultReport(trigger.ResultOf(j, rep))
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("report round-trip:\n  in:  %+v\n  out: %+v", rep, got)
	}
}

// TestResultBatchEnvelope pins the POST /v1/result envelope: each
// result inside a marshalled batch carries exactly Result's own bytes
// (FuzzResultJSON's encoding, nil-vs-empty slices included), and the
// batch round-trips.
func TestResultBatchEnvelope(t *testing.T) {
	job := fleet.Job{System: "yarn", Campaign: "recovery", Run: 3, Seed: 11, Scale: 2, Point: "yarn.RM.register#3", Scenario: "pre-read"}
	results := []fleet.Result{
		{Job: job, Outcome: "ok", Exceptions: nil, Witnesses: nil},
		{Job: job, Outcome: "ok", Exceptions: []string{}, Witnesses: []string{}},
		{
			Job: job, Outcome: "job-failure", Failing: true, Target: "node1:7001",
			Fault:      &fleet.Fault{Kind: "crash", Node: "node1:7001", At: 1500},
			Duration:   9000,
			Exceptions: []string{"NPE@yarn.RM.register"}, Witnesses: []string{"yarn-1001"},
			Restarted: []string{"node1:7001"}, Reason: "container lost", Sig: "sig-key",
			Spans: []fleet.SpanRef{{Phase: "run", Wall: time.Millisecond, Sim: 20}},
		},
	}
	batch := fleet.ResultBatch{Worker: "w0", Lease: 7, Shard: 2}
	for k, r := range results {
		batch.Results = append(batch.Results, fleet.ResultEntry{I: 40 + k, Result: r})
	}
	b, err := json.Marshal(batch)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var raw struct {
		Results []struct {
			R json.RawMessage `json:"r"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatalf("unmarshal envelope %s: %v", b, err)
	}
	if len(raw.Results) != len(results) {
		t.Fatalf("envelope holds %d results, want %d", len(raw.Results), len(results))
	}
	for k, r := range results {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal result %d: %v", k, err)
		}
		if string(raw.Results[k].R) != string(want) {
			t.Errorf("results[%d].r = %s, want Result's own bytes %s", k, raw.Results[k].R, want)
		}
	}
	var got fleet.ResultBatch
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("batch round-trip:\n  in:  %+v\n  json: %s\n  out: %+v", batch, b, got)
	}
}
