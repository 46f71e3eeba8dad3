// Fleet planning and execution glue: core is the layer that knows both
// the pipeline (analysis, profiling, baselines, snapshot plans) and the
// trigger, so it renders pipeline configurations as wire specs, plans
// campaigns as wire job lists, and builds the worker-side executor
// factory that rebuilds a live Tester from a spec.
package core

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/logparse"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// campaignKind derives the campaign label of a pipeline configuration —
// the same switch trigger.Tester.scope applies, so planned jobs and
// executed records agree on it.
func campaignKind(opts Options) string {
	switch {
	case opts.Partition != nil && opts.Recovery != nil:
		return "partition-recovery"
	case opts.Partition != nil:
		return "partition"
	case opts.Recovery != nil:
		return "recovery"
	}
	return "test"
}

// SpecOf renders one pipeline configuration as the wire campaign spec a
// fleet worker rebuilds its Tester from. OptionsOf inverts it.
func SpecOf(system string, opts Options) fleet.Spec {
	opts.defaults()
	spec := fleet.Spec{
		System:       system,
		Campaign:     campaignKind(opts),
		Seed:         opts.Seed,
		Scale:        opts.Scale,
		BaselineRuns: opts.BaselineRuns,
		Deadline:     opts.Deadline,
		MaxSteps:     opts.MaxSteps,
		RandomTarget: opts.RandomTarget,
	}
	if rc := opts.Recovery; rc != nil {
		spec.Recovery = &fleet.RecoverySpec{
			RestartDelay:        rc.RestartDelay,
			SecondFaultDelay:    rc.SecondFaultDelay,
			SecondFaultShutdown: rc.SecondFaultKind == sim.FaultShutdown,
		}
	}
	if po := opts.Partition; po != nil {
		spec.Partition = &fleet.PartitionSpec{
			Mode:      po.Mode.String(),
			Delay:     po.Delay,
			HealAfter: po.HealAfter,
			HoldOpen:  po.HoldOpen,
		}
	}
	return spec
}

// OptionsOf rebuilds the pipeline options a wire spec encodes. The
// campaign-execution knobs (workers, checkpointing, sink, recorder) are
// deliberately absent: they belong to whichever process drives the
// campaign, not to the wire contract.
func OptionsOf(spec fleet.Spec) Options {
	opts := Options{
		Seed:         spec.Seed,
		Scale:        spec.Scale,
		BaselineRuns: spec.BaselineRuns,
		Deadline:     spec.Deadline,
		MaxSteps:     spec.MaxSteps,
		RandomTarget: spec.RandomTarget,
	}
	if rs := spec.Recovery; rs != nil {
		kind := sim.FaultCrash
		if rs.SecondFaultShutdown {
			kind = sim.FaultShutdown
		}
		opts.Recovery = &trigger.RecoveryOptions{
			RestartDelay:     rs.RestartDelay,
			SecondFaultDelay: rs.SecondFaultDelay,
			SecondFaultKind:  kind,
		}
	}
	if ps := spec.Partition; ps != nil {
		mode, _ := sim.ParsePartitionMode(ps.Mode)
		opts.Partition = &trigger.PartitionOptions{
			Mode:      mode,
			Delay:     ps.Delay,
			HealAfter: ps.HealAfter,
			HoldOpen:  ps.HoldOpen,
		}
	}
	opts.defaults()
	return opts
}

// PlanFleet runs the planning half of one system's campaign — analysis
// and profiling, no injection — and renders the wire plan: the spec,
// one job per dynamic crash point, and the retry scale of the
// single-process retry-at-final-scale rule. With a non-nil cache both
// phases are memoized, so the campaign kinds of one (system, seed,
// scale) analyse and profile once. Consistency-guided campaigns are
// rejected: guided ordinals derive from violation context that is not
// wire-encodable, so they stay in-process.
func PlanFleet(r cluster.Runner, cache *ArtifactCache, opts Options) (fleet.Plan, error) {
	opts.defaults()
	if opts.Partition != nil && opts.Partition.Guided {
		return fleet.Plan{}, fmt.Errorf("fleet: consistency-guided campaigns are not wire-encodable; run %s in-process", r.Name())
	}
	var res *Result
	if cache != nil {
		res, _ = cache.AnalysisPhase(r, opts)
		cache.profilePhase(r, res, opts)
	} else {
		res, _ = AnalysisPhase(r, opts)
		ProfilePhase(r, res, opts)
	}
	t := &trigger.Tester{Runner: r, Seed: opts.Seed, Scale: opts.Scale, Recovery: opts.Recovery, Partition: opts.Partition}
	plan := fleet.Plan{Spec: SpecOf(r.Name(), opts), Jobs: t.Jobs(res.Dynamic.Points)}
	if res.Dynamic.FinalScale > opts.Scale {
		plan.RetryScale = res.Dynamic.FinalScale
	}
	return plan, nil
}

// FleetExecutors builds the worker-side executor factory: given a
// leased spec and a scale, it resolves the runner, replays the memoized
// analysis phase, takes the fault-free baseline at the spec's base scale
// (memoized in the cache, so the executors of every campaign kind and
// retry wave over one (system, seed, scale) share one measurement, like
// the single-process retry tester, which copies the base-scale
// baseline), and returns a Tester with a snapshot plan for its scale.
// Execution is deterministic, so a worker-built Tester produces
// byte-identical results to the single-process campaign's.
func FleetExecutors(cache *ArtifactCache, resolve func(name string) (cluster.Runner, error)) fleet.ExecutorFactory {
	return func(spec fleet.Spec, scale int) (fleet.Executor, error) {
		r, err := resolve(spec.System)
		if err != nil {
			return nil, err
		}
		opts := OptionsOf(spec)
		opts.artifacts = cache
		var res *Result
		var matcher *logparse.Matcher
		if cache != nil {
			res, matcher = cache.AnalysisPhase(r, opts)
		} else {
			res, matcher = AnalysisPhase(r, opts)
		}
		if scale <= 0 {
			scale = opts.Scale
		}
		t := &trigger.Tester{
			Runner:       r,
			Analysis:     res.Analysis,
			Matcher:      matcher,
			Baseline:     opts.baseline(r),
			Seed:         opts.Seed,
			Scale:        scale,
			RandomTarget: opts.RandomTarget,
			Recovery:     opts.Recovery,
			Partition:    opts.Partition,
			MaxSteps:     opts.MaxSteps,
		}
		t.Snapshots = opts.snapshotPlan(t)
		return t, nil
	}
}
