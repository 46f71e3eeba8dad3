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
// once, and triage confirmation replays a record once, on this premise.
// A draw is an error even when it changes nothing observable yet.
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
