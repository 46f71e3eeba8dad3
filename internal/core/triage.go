// Confirmation executor: the bridge from a persisted triage record back
// into a live injection run. The triage package owns the confirmation
// protocol but cannot import the trigger (the trigger records into
// triage); core sits above both, so it builds the Execute closure the
// protocol drives.
package core

import (
	"repro/internal/crashpoint"
	"repro/internal/ir"
	"repro/internal/logparse"
	"repro/internal/probe"
	"repro/internal/systems/cluster"
	"repro/internal/triage"
	"repro/internal/trigger"
)

// NewConfirmExecutor builds the re-execution closure for one system:
// each attempt rebuilds the record's dynamic crash point and tests it
// through the trigger under a perturbed seed (rec.Seed + attempt), so a
// deterministic bug reproduces on every attempt while a
// schedule-dependent one flakes. The analysis artifacts and the
// fault-free baseline are prepared once, up front — attempts share
// them, like runs of an ordinary campaign. cache may be nil to
// recompute the analysis and the baseline instead of memoizing them.
func NewConfirmExecutor(r cluster.Runner, cache *ArtifactCache, opts Options) triage.Execute {
	opts.defaults()
	opts.artifacts = cache
	var res *Result
	var matcher *logparse.Matcher
	if cache != nil {
		res, matcher = cache.AnalysisPhase(r, opts)
	} else {
		res, matcher = AnalysisPhase(r, opts)
	}
	b := opts.baseline(r)
	return func(rec triage.Record, attempt int) triage.Record {
		inj, ok := crashpoint.ParseInjection(rec.Scenario)
		if rec.Point == "" || !ok {
			// Not re-executable (a baseline-only record): report the
			// attempt as a harness error, which matches no cluster.
			out := rec
			out.Campaign = "triage"
			out.Run = attempt
			out.Outcome = trigger.HarnessError.String()
			out.Sig = out.Signature().Key()
			return out
		}
		scale := rec.Scale
		if scale < 1 {
			scale = opts.Scale
		}
		// The scenario string names the fault family: a "+partition"
		// record re-executes as a cut (under the caller's partition
		// options, defaulted if absent) and a plain record as a crash,
		// whatever the caller configured — the record wins.
		var po *trigger.PartitionOptions
		if inj.Partition {
			if po = opts.Partition; po == nil {
				po = &trigger.PartitionOptions{}
			}
		}
		// Campaign-level knobs (checkpoints, sink, recorder) belong to
		// the confirmation campaign driving this closure, not to the
		// nested single runs, so the Tester gets a zero Config.
		t := &trigger.Tester{
			Runner:    r,
			Analysis:  res.Analysis,
			Matcher:   matcher,
			Baseline:  b,
			Seed:      rec.Seed + int64(attempt),
			Scale:     scale,
			Recovery:  opts.Recovery,
			Partition: po,
			MaxSteps:  opts.MaxSteps,
		}
		dyn := probe.DynPoint{
			Point:    ir.PointID(rec.Point),
			Scenario: inj.Scenario,
			Stack:    rec.Stack,
		}
		var rep trigger.Report
		if inj.Guided {
			rep = t.TestGuidedPoint(trigger.GuidedPoint{Dyn: dyn, Ordinal: inj.Ordinal})
		} else {
			rep = t.TestPoint(dyn)
		}
		return triage.FromRunRecord(trigger.RunRecordOf(r.Name(), "triage", attempt, t.Seed, scale, rep))
	}
}
