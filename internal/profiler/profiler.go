// Package profiler implements the Profiler of §3.1.3: it runs the system
// under test with the given workload, recording every executed static
// crash point together with its (bounded) runtime call stack, and keeps
// doubling the workload size until the set of dynamic crash points
// reaches a fixed point. Static crash points that never execute are
// discarded.
package profiler

import (
	"sort"

	"repro/internal/crashpoint"
	"repro/internal/dslog"
	"repro/internal/ir"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// Options tunes the collection.
type Options struct {
	// Seed for the profiling runs.
	Seed int64
	// StartScale is the initial workload size (default 1).
	StartScale int
	// MaxIterations caps the doubling loop (default 6; the paper's
	// systems converge in 2–3 iterations).
	MaxIterations int
	// Deadline bounds each profiling run in virtual time (default 1h).
	Deadline sim.Time
}

func (o *Options) defaults() {
	if o.StartScale < 1 {
		o.StartScale = 1
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 6
	}
	if o.Deadline <= 0 {
		o.Deadline = sim.Hour
	}
}

// Set is the collected dynamic crash points.
type Set struct {
	Points []probe.DynPoint
	// Iterations is the number of profiling runs performed.
	Iterations int
	// FinalScale is the largest scale that found new points: the last
	// run's scale when the loop hit MaxIterations, the one before it
	// when the loop converged.
	FinalScale int
	// StaticHit counts distinct static points that executed at least
	// once (the others are discarded, §3.1.3).
	StaticHit int
}

// armKey identifies a static point by hook instruction and scenario.
type armKey struct {
	point ir.PointID
	scen  crashpoint.Scenario
}

// Collect profiles runner against the static crash points and returns
// the dynamic crash point set.
func Collect(r cluster.Runner, static *crashpoint.Result, opts Options) *Set {
	return collect(r, static, opts, nil, false)
}

// CollectFrom is Collect with iteration 0 read from a recorded run
// instead of driven: first lists the dynamic points the fault-free run
// at (opts.Seed, opts.StartScale, opts.Deadline) hit. The profiling hook
// only observes, so filtering those points by the static points is
// iteration 0 exactly; the doubling loop then runs from iteration 1.
func CollectFrom(r cluster.Runner, static *crashpoint.Result, opts Options, first []probe.DynPoint) *Set {
	return collect(r, static, opts, first, true)
}

func collect(r cluster.Runner, static *crashpoint.Result, opts Options, first []probe.DynPoint, recorded bool) *Set {
	opts.defaults()
	armed := make(map[armKey]bool, len(static.Points))
	for _, sp := range static.Points {
		armed[armKey{sp.Point, sp.Scenario}] = true
	}

	found := make(map[string]probe.DynPoint)
	staticHit := make(map[armKey]bool)
	observe := func(d probe.DynPoint) {
		k := armKey{d.Point, d.Scenario}
		if !armed[k] {
			return
		}
		staticHit[k] = true
		if _, ok := found[d.Key()]; !ok {
			found[d.Key()] = d
		}
	}
	scale := opts.StartScale
	iters := 0
	for ; iters < opts.MaxIterations; iters++ {
		before := len(found)
		if iters == 0 && recorded {
			for _, d := range first {
				observe(d)
			}
		} else {
			pb := probe.New()
			pb.OnAccess = func(a probe.Access) { observe(a.Dyn()) }
			// The profile reads accesses only; no log record is rendered.
			run := r.NewRun(cluster.Config{
				Seed:  opts.Seed + int64(iters),
				Scale: scale,
				Probe: pb,
				Logs:  dslog.Discard(),
			})
			cluster.Drive(run, opts.Deadline)
		}
		if len(found) == before && iters > 0 {
			iters++
			break
		}
		scale *= 2
	}

	s := &Set{Iterations: iters, FinalScale: scale / 2, StaticHit: len(staticHit)}
	for _, d := range found {
		s.Points = append(s.Points, d)
	}
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].Key() < s.Points[j].Key() })
	return s
}
