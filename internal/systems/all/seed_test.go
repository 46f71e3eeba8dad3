package all

import (
	"reflect"
	"testing"

	"repro/internal/dslog"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// faultFreeRun is everything a fault-free run lets the pipeline observe.
type faultFreeRun struct {
	Result      sim.RunResult
	Fingerprint sim.Fingerprint
	Status      cluster.Status
	Reason      string
	Witnesses   []string
	Exceptions  []sim.Exception
	Logs        []dslog.Record
	// Drew reports that the run consumed its engine's random stream.
	Drew bool
}

func runFaultFree(r cluster.Runner, seed int64, scale int) faultFreeRun {
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: seed, Scale: scale, Probe: probe.New(), Logs: logs})
	res := cluster.Drive(run, sim.Hour)
	e := run.Engine()
	return faultFreeRun{
		Result:      res,
		Fingerprint: e.Fingerprint(),
		Status:      run.Status(),
		Reason:      run.FailureReason(),
		Witnesses:   run.Witnesses(),
		Exceptions:  e.Exceptions(),
		Logs:        logs.Records(),
		Drew:        e.Rand().Int63() != sim.NewEngine(seed).Rand().Int63(),
	}
}

// TestFaultFreeRunsSeedInvariant: no model and no engine code draws from
// Engine.Rand, so the seed reaches only the injector, and a fault-free
// run is one execution whatever its seed. The baseline census runs it
// once, and triage confirmation replays a record once, on this premise;
// asked for several runs, trigger.MeasureBaseline stops after the first
// one whose engine drew nothing (Engine.Draws). A draw is an error even
// when it changes nothing observable yet.
func TestFaultFreeRunsSeedInvariant(t *testing.T) {
	seeds := []int64{11, 1009, 7, 123456789}
	for _, r := range systems {
		for _, scale := range []int{1, 4, 32} {
			want := runFaultFree(r, seeds[0], scale)
			if len(want.Logs) == 0 {
				t.Errorf("%s scale %d: fault-free run logged nothing", r.Name(), scale)
			}
			if want.Drew {
				t.Errorf("%s scale %d: fault-free run drew from Engine.Rand", r.Name(), scale)
			}
			for _, seed := range seeds[1:] {
				if got := runFaultFree(r, seed, scale); !reflect.DeepEqual(got, want) {
					t.Errorf("%s scale %d: seed %d run differs from seed %d: end %v/%v, fingerprint %+v/%+v, status %v/%v, %d/%d exceptions, %d/%d log records",
						r.Name(), scale, seed, seeds[0], got.Result.End, want.Result.End, got.Fingerprint, want.Fingerprint,
						got.Status, want.Status, len(got.Exceptions), len(want.Exceptions), len(got.Logs), len(want.Logs))
				}
			}
		}
	}
}

// observedRun is what a run without log readers lets the pipeline see:
// the access stream's dynamic-point keys and the run's outcome.
type observedRun struct {
	Accesses    []string
	Result      sim.RunResult
	Fingerprint sim.Fingerprint
	Status      cluster.Status
	Witnesses   []string
	Exceptions  []sim.Exception
}

func observe(r cluster.Runner, seed int64, scale int, logs *dslog.Root) observedRun {
	var o observedRun
	pb := probe.New()
	pb.OnAccess = func(a probe.Access) { o.Accesses = append(o.Accesses, a.Dyn().Key()) }
	run := r.NewRun(cluster.Config{Seed: seed, Scale: scale, Probe: pb, Logs: logs})
	o.Result = cluster.Drive(run, sim.Hour)
	o.Fingerprint = run.Engine().Fingerprint()
	o.Status = run.Status()
	o.Witnesses = run.Witnesses()
	o.Exceptions = run.Engine().Exceptions()
	return o
}

// TestDiscardedLogsLeaveRunUnchanged: no model reads its own logs, so a
// run logging to dslog.Discard() is the run logging to a real root in
// everything but the records. The profiler's runs and the baseline
// census log to a discarding root on this premise.
func TestDiscardedLogsLeaveRunUnchanged(t *testing.T) {
	for _, r := range systems {
		for _, seed := range []int64{11, 1009} {
			for _, scale := range []int{1, 2, 4, 8, 32, 64} {
				want := observe(r, seed, scale, dslog.NewRoot())
				if len(want.Accesses) == 0 {
					t.Errorf("%s seed %d scale %d: the run made no probe access", r.Name(), seed, scale)
				}
				if got := observe(r, seed, scale, dslog.Discard()); !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d scale %d: run under a discarding root differs: %d/%d accesses, end %v/%v, fingerprint %+v/%+v, status %v/%v",
						r.Name(), seed, scale, len(got.Accesses), len(want.Accesses), got.Result.End, want.Result.End,
						got.Fingerprint, want.Fingerprint, got.Status, want.Status)
				}
			}
		}
	}
}
