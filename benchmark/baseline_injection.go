package main

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/logparse"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// baseline-injection: baseline.Random (300 runs) plus
// baseline.IOInjection for one (system, seed) per op, the cost of the
// paper's Tables 7 and 9. Every run is a whole run from t=0 through the
// baseline executors: no analysis, no forks. It uses sim the other way
// round from campaign-families (whole-run dispatch, not clone+suffix),
// so a fork optimisation that taxes Engine.Run dispatch shows here as a
// cost. Random and IO are one op on purpose: timed apart, the median
// sits on the boundary between two op sizes and swings from run to run.
var baselineInjectionDef = workloadDef{
	name:         "baseline-injection",
	scale:        baselineScale,
	goldenBlocks: 2,
	setupReps:    5,
	build:        newBaselineInjection,
}

const (
	baselineScale      = 4
	baselineRandomRuns = 300
)

type baselineInjection struct {
	seed    int64
	runners []cluster.Runner
	// matchers are per system and seed-independent, so set-up builds
	// them once; the fault-free baselines are per (system, seed) and are
	// measured untimed when a block is built.
	matchers []*logparse.Matcher
}

func newBaselineInjection(seed int64) workload {
	w := &baselineInjection{seed: seed, runners: systems()}
	for _, r := range w.runners {
		w.matchers = append(w.matchers, logparse.NewMatcher(logparse.ExtractPatterns(r.Program())))
	}
	return w
}

// recordLines is the campaign.RunRecorder that renders every baseline
// run as a verdict line; baseline.Result itself only keeps totals.
type recordLines struct{ v verdicts }

func (rl *recordLines) Record(rr campaign.RunRecord) {
	rl.v.runs++
	rl.v.lines = append(rl.v.lines, fmt.Sprintf("%s#%d|%s|%s|%s|%s|%d|%s",
		rr.Campaign, rr.Run, rr.Point, rr.Outcome, rr.Target, rr.Fault, int64(rr.Duration), strings.Join(rr.Witnesses, ",")))
	switch {
	case rr.Outcome == trigger.HarnessError.String():
		rl.v.harness++
	case rr.Failing:
		rl.v.bugs++
		rl.v.witnesses = append(rl.v.witnesses, rr.Witnesses...)
	}
}

func (w *baselineInjection) block(b int) []op {
	seed := opSeed(w.seed, b)
	var ops []op
	for i, r := range w.runners {
		matcher := w.matchers[i]
		base := trigger.MeasureBaseline(r, seed, baselineScale, baselineRuns, runDeadline)
		ops = append(ops, op{
			name: fmt.Sprintf("%s seed=%d", r.Name(), seed),
			run: func(tr *spans) ([]verdicts, error) {
				rec := &recordLines{v: verdicts{group: r.Name()}}
				opts := baseline.Options{
					Config: campaign.Config{Workers: 1, Recorder: rec},
					Seed:   seed, Scale: baselineScale, Runs: baselineRandomRuns,
				}
				var random, io *baseline.Result
				tr.time("op", func() {
					tr.time("baseline.random", func() { random = baseline.Random(r, base, opts) })
					tr.time("baseline.io", func() { io = baseline.IOInjection(r, matcher, base, opts) })
				})
				if random.Runs != baselineRandomRuns || random.Runs+io.Runs != rec.v.runs {
					return nil, fmt.Errorf("random ran %d of %d runs, io ran %d, %d recorded", random.Runs, baselineRandomRuns, io.Runs, rec.v.runs)
				}
				return []verdicts{rec.v}, nil
			},
		})
	}
	return ops
}
