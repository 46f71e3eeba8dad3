package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// PairSummary runs the multiple-crash-event extension (the paper's §6
// future work; see internal/trigger/multi.go) on one system: a capped
// campaign over ordered pairs of dynamic crash points, two injections
// per run.
func PairSummary(r cluster.Runner, seed int64, scale, maxPairs int) string {
	opts := core.Options{Seed: seed, Scale: scale}
	res, matcher := core.AnalysisPhase(r, opts)
	core.ProfilePhase(r, res, opts)
	res.Baseline = trigger.MeasureBaseline(r, seed, scale, 1, 0)
	tester := &trigger.Tester{
		Runner:   r,
		Analysis: res.Analysis,
		Matcher:  matcher,
		Baseline: res.Baseline,
		Seed:     seed,
		Scale:    scale,
	}
	reports := tester.PairCampaign(res.Dynamic.Points, maxPairs)

	var b strings.Builder
	fmt.Fprintf(&b, "Multiple-crash-event extension on %s: %d ordered pairs tested\n",
		r.Name(), len(reports))
	byOutcome := map[trigger.Outcome]int{}
	bugs := map[string]bool{}
	twoFault := 0
	for _, rep := range reports {
		byOutcome[rep.Outcome]++
		if len(rep.Injections) == 2 {
			twoFault++
		}
		if rep.Outcome.IsBug() {
			for _, w := range rep.Witnesses {
				bugs[w] = true
			}
		}
	}
	fmt.Fprintf(&b, "runs with both faults injected: %d\n", twoFault)
	for o := trigger.NotHit; o <= trigger.MaxOutcome; o++ {
		if n := byOutcome[o]; n > 0 {
			fmt.Fprintf(&b, "  %-20s %d\n", o.String(), n)
		}
	}
	var ids []string
	for id := range bugs {
		ids = append(ids, id)
	}
	sortStrings(ids)
	fmt.Fprintf(&b, "bugs witnessed across pair runs: %v\n", ids)
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
