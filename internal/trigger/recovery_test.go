// Recovery-phase and campaign-robustness tests. These live in an
// external test package because they drive the full core pipeline, and
// core imports trigger.
package trigger_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
	"repro/internal/trigger"
)

// chaosRunner wraps a well-behaved runner and sabotages every run:
// mode "panic" blows up the model mid-run, mode "livelock" schedules an
// endless self-perpetuating event chain. Both are harness-robustness
// fixtures, not system models.
type chaosRunner struct {
	cluster.Runner
	mode string
}

func (c *chaosRunner) NewRun(cfg cluster.Config) cluster.Run {
	run := c.Runner.NewRun(cfg)
	e := run.Engine()
	switch c.mode {
	case "panic":
		e.After(50*sim.Millisecond, func() { panic("chaos: model bug") })
	case "livelock":
		var spin func()
		spin = func() { e.After(sim.Microsecond, spin) }
		e.After(50*sim.Millisecond, spin)
	}
	return run
}

func toyPoints() []probe.DynPoint {
	return []probe.DynPoint{
		{Point: toysys.PtCommitGet, Scenario: crashpoint.PreRead, Stack: "toy.Master.commitPending"},
		{Point: toysys.PtCommitPut, Scenario: crashpoint.PostWrite, Stack: "toy.Master.commitPending"},
		{Point: toysys.PtRegisterPut, Scenario: crashpoint.PostWrite, Stack: "toy.Master.registerWorker"},
	}
}

// TestCampaignIsolatesModelPanics pins acceptance criterion (a): a
// deliberately panicking system model completes the campaign with every
// point reported as a harness outcome, not a crashed process.
func TestCampaignIsolatesModelPanics(t *testing.T) {
	base := &toysys.Runner{}
	b := trigger.MeasureBaseline(base, 1, 1, 1, 0)
	tester := &trigger.Tester{
		Runner:   &chaosRunner{Runner: base, mode: "panic"},
		Baseline: b, Seed: 1, Scale: 1, Config: campaign.Config{Workers: 2},
	}
	points := toyPoints()
	reports := tester.Campaign(points)
	if len(reports) != len(points) {
		t.Fatalf("campaign returned %d reports for %d points", len(reports), len(points))
	}
	for i, rep := range reports {
		if rep.Outcome != trigger.HarnessError {
			t.Errorf("point %d outcome = %v, want harness-error", i, rep.Outcome)
		}
		if !strings.Contains(rep.Reason, "panic in system model") {
			t.Errorf("point %d reason = %q, want the recovered panic", i, rep.Reason)
		}
		if rep.Outcome.IsBug() {
			t.Errorf("harness error counted as a system bug")
		}
	}
	s := trigger.Summarize(reports)
	if s.HarnessErrors != len(points) || s.Bugs != 0 {
		t.Errorf("summary = %+v, want %d harness errors and no bugs", s, len(points))
	}
}

// TestCampaignReportsLivelockAsHarnessError pins acceptance criterion
// (b): a livelocked run exhausts its step budget and is reported as a
// harness outcome instead of hanging the campaign forever.
func TestCampaignReportsLivelockAsHarnessError(t *testing.T) {
	base := &toysys.Runner{}
	b := trigger.MeasureBaseline(base, 1, 1, 1, 0)
	tester := &trigger.Tester{
		Runner:   &chaosRunner{Runner: base, mode: "livelock"},
		Baseline: b, Seed: 1, Scale: 1, Config: campaign.Config{Workers: 1},
		MaxSteps: 20_000,
	}
	reports := tester.Campaign(toyPoints())
	for i, rep := range reports {
		if rep.Outcome != trigger.HarnessError {
			t.Errorf("point %d outcome = %v, want harness-error (step budget exhausted)", i, rep.Outcome)
		}
	}
	if s := trigger.Summarize(reports); s.HarnessErrors != len(reports) {
		t.Errorf("summary = %+v, want all harness errors", s)
	}
}

// TestRecoveryCampaignRestartsEverySystem runs a recovery-phase campaign
// on every system — the five paper systems plus the extensions — and
// demands that each one actually exercises sim.Engine.Restart through a
// seeded injection, with no harness errors, and that the recovery
// oracles fire somewhere across the fleet.
func TestRecoveryCampaignRestartsEverySystem(t *testing.T) {
	if testing.Short() {
		t.Skip("full recovery campaigns on all systems")
	}
	rc := &trigger.RecoveryOptions{RestartDelay: 2 * sim.Second}
	recoveryBugs := 0
	systems := append(all.Runners(), all.Extensions()...)
	for _, r := range systems {
		t.Run(r.Name(), func(t *testing.T) {
			res := core.Run(r, core.Options{Config: campaign.Config{Workers: 1}, Seed: 11, Scale: 1, Recovery: rc})
			if res.Summary.Restarts == 0 {
				t.Errorf("no run restarted its victim")
			}
			if res.Summary.HarnessErrors != 0 {
				t.Errorf("%d harness errors in a healthy model", res.Summary.HarnessErrors)
			}
			for _, rep := range res.Reports {
				if len(rep.Restarted) > 0 && rep.Outcome == trigger.NotHit {
					t.Errorf("restart recorded on a not-hit point: %+v", rep)
				}
				if rep.Outcome.IsRecoveryBug() {
					recoveryBugs++
					if len(rep.Restarted) == 0 {
						t.Errorf("recovery-oracle outcome %v without a recorded restart", rep.Outcome)
					}
				}
			}
		})
	}
	if recoveryBugs == 0 {
		t.Errorf("no recovery-oracle outcome fired on any system")
	}
}

// TestSecondFaultInRecoveryWindow injects a second crash 5 ms after the
// restart — before the toy worker's 10 ms re-registration — so the
// victim must never rejoin.
func TestSecondFaultInRecoveryWindow(t *testing.T) {
	rc := &trigger.RecoveryOptions{
		RestartDelay:     200 * sim.Millisecond,
		SecondFaultDelay: 5 * sim.Millisecond,
	}
	res := core.Run(&toysys.Runner{}, core.Options{Config: campaign.Config{Workers: 1}, Seed: 11, Scale: 1, Recovery: rc})
	if res.Summary.Restarts == 0 {
		t.Fatal("no run restarted its victim")
	}
	never := 0
	for _, rep := range res.Reports {
		if rep.Outcome == trigger.NeverRejoined {
			never++
		}
	}
	if never == 0 {
		t.Errorf("no never-rejoined outcome; by outcome: %v", res.Summary.ByOutcome)
	}
}

// TestRecoveryCampaignDeterminism checks that the recovery-phase
// campaign is schedule-independent: sequential and 8-way-parallel
// campaigns produce byte-identical reports.
func TestRecoveryCampaignDeterminism(t *testing.T) {
	rc := &trigger.RecoveryOptions{RestartDelay: 200 * sim.Millisecond}
	marshal := func(workers int) []byte {
		res := core.Run(&toysys.Runner{}, core.Options{Config: campaign.Config{Workers: workers}, Seed: 3, Scale: 1, Recovery: rc})
		b, err := json.Marshal(struct {
			Reports []trigger.Report
			Summary trigger.Summary
		}{res.Reports, res.Summary})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq, par := marshal(1), marshal(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("workers=1 and workers=8 reports differ:\n%s\nvs\n%s", seq, par)
	}
}

// TestInterruptedCampaignResumesByteIdentical pins the resume acceptance
// criterion at the report level: a campaign interrupted partway (its
// checkpoint truncated to a prefix plus a torn tail) and then resumed
// produces reports and summary byte-identical to an uninterrupted run.
func TestInterruptedCampaignResumesByteIdentical(t *testing.T) {
	rc := &trigger.RecoveryOptions{RestartDelay: 200 * sim.Millisecond}
	opts := func() core.Options {
		return core.Options{Config: campaign.Config{Workers: 1}, Seed: 11, Scale: 1, Recovery: rc}
	}
	marshal := func(res *core.Result) []byte {
		b, err := json.Marshal(struct {
			Reports []trigger.Report
			Summary trigger.Summary
		}{res.Reports, res.Summary})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	uninterrupted := marshal(core.Run(&toysys.Runner{}, opts()))

	path := filepath.Join(t.TempDir(), "toysys.ckpt")
	full := opts()
	full.CheckpointPath = path
	core.Run(&toysys.Runner{}, full)

	// Simulate the interruption: keep the first 2 checkpoint lines and a
	// torn third one, as if the process died mid-write.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 3 {
		t.Fatalf("checkpoint too small to truncate: %d lines", len(lines))
	}
	torn := strings.Join(lines[:2], "") + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resumedOpts := opts()
	resumedOpts.CheckpointPath = path
	resumedOpts.Resume = true
	resumed := marshal(core.Run(&toysys.Runner{}, resumedOpts))
	if !bytes.Equal(uninterrupted, resumed) {
		t.Errorf("resumed campaign differs from uninterrupted run:\n%s\nvs\n%s", uninterrupted, resumed)
	}
}

// TestParseSecondFaultKind pins the -second-fault vocabulary: the two
// kinds RecoveryOptions.SecondFaultKind accepts, and nothing else.
func TestParseSecondFaultKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.FaultKind
		ok   bool
	}{
		{"crash", sim.FaultCrash, true},
		{"shutdown", sim.FaultShutdown, true},
		{"restart", sim.FaultCrash, false},
		{"partition", sim.FaultCrash, false},
		{"heal", sim.FaultCrash, false},
		{"", sim.FaultCrash, false},
		{"bogus", sim.FaultCrash, false},
	} {
		got, ok := trigger.ParseSecondFaultKind(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseSecondFaultKind(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}
