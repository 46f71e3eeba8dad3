package trigger

import "repro/internal/probe"

// LeanPoints counts the points the plan saw firing that no clone rung
// precedes: the runs a fork must lean-replay from t=0.
func (p *SnapshotPlan) LeanPoints(points []probe.DynPoint) int {
	n := 0
	for _, d := range points {
		if ps, hit := p.points[d]; hit {
			if _, ok := p.rungFor(ps); !ok {
				n++
			}
		}
	}
	return n
}
