package trigger

import (
	"fmt"
	"sort"

	"repro/internal/dslog"
	"repro/internal/probe"
	"repro/internal/stash"
	"repro/internal/systems/cluster"
)

// PlanFromRecord reports whether p's point table and reference outcome
// came from a Recording instead of the plan's own reference pass.
func PlanFromRecord(p *SnapshotPlan) bool { return p.recorded }

// RecordedSteps returns how many events the recorded run dispatched.
func RecordedSteps(rec *Recording) uint64 { return rec.res.Steps }

// DiffPlans compares two plans: their parameters, reference outcomes
// and point tables field by field (ordinal, at, logSeq, fingerprint),
// and, point by point, the answers of the two stash views to every one
// of values. It returns the first difference, or "" when the plans
// agree.
func DiffPlans(a, b *SnapshotPlan, values []string) string {
	if a.system != b.system || a.seed != b.seed || a.scale != b.scale || a.deadline != b.deadline || a.maxSteps != b.maxSteps {
		return fmt.Sprintf("parameters differ: %s/%d/%d/%v/%d vs %s/%d/%d/%v/%d",
			a.system, a.seed, a.scale, a.deadline, a.maxSteps, b.system, b.seed, b.scale, b.deadline, b.maxSteps)
	}
	if a.refEnd != b.refEnd || a.refExhausted != b.refExhausted || a.refReason != b.refReason ||
		fmt.Sprint(a.refWitnesses) != fmt.Sprint(b.refWitnesses) || fmt.Sprint(a.refExceptions) != fmt.Sprint(b.refExceptions) {
		return fmt.Sprintf("reference outcomes differ: end %v/%v exhausted %v/%v reason %q/%q witnesses %v/%v, %d/%d exceptions",
			a.refEnd, b.refEnd, a.refExhausted, b.refExhausted, a.refReason, b.refReason,
			a.refWitnesses, b.refWitnesses, len(a.refExceptions), len(b.refExceptions))
	}
	if len(a.points) != len(b.points) {
		return fmt.Sprintf("%d points vs %d", len(a.points), len(b.points))
	}
	if len(a.rungs) != len(b.rungs) {
		return fmt.Sprintf("%d rungs vs %d", len(a.rungs), len(b.rungs))
	}
	keys := make([]probe.DynPoint, 0, len(a.points))
	for d := range a.points {
		keys = append(keys, d)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Key() < keys[j].Key() })
	for _, d := range keys {
		pa := a.points[d]
		pb, ok := b.points[d]
		if !ok {
			return fmt.Sprintf("%s: missing from the second plan", d.Key())
		}
		if pa.ordinal != pb.ordinal || pa.at != pb.at || pa.logSeq != pb.logSeq || pa.fp != pb.fp {
			return fmt.Sprintf("%s: capture differs: ordinal %d/%d at %v/%v logSeq %d/%d fingerprint %+v/%+v",
				d.Key(), pa.ordinal, pb.ordinal, pa.at, pb.at, pa.logSeq, pb.logSeq, pa.fp, pb.fp)
		}
		for _, v := range values {
			na, oka := pa.view.Query(v)
			nb, okb := pb.view.Query(v)
			if na != nb || oka != okb {
				return fmt.Sprintf("%s: views answer %q with %q/%v vs %q/%v", d.Key(), v, na, oka, nb, okb)
			}
		}
	}
	return ""
}

// StashValues drives t's fault-free run with a live stash and returns
// every value the stash recorded: each associated value, each node value
// and each configured host.
func StashValues(t *Tester) []string {
	logs := dslog.NewRoot()
	st := stash.New(t.Runner.Hosts(), t.matcher(), t.Analysis)
	st.Attach(logs)
	run := t.Runner.NewRun(cluster.Config{Seed: t.Seed, Scale: t.Scale, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, t.RunDeadline())
	var values []string
	for v := range st.Associations() {
		values = append(values, v)
	}
	sort.Strings(values)
	values = append(values, st.Nodes()...)
	return append(values, t.Runner.Hosts()...)
}
