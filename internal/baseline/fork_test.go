package baseline

import (
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
	"repro/internal/trigger"
)

// oracleScale reads the CT_ORACLE_SCALE override (nightly CI runs the
// fork oracle at a larger cluster scale than the per-commit default of 1).
func oracleScale(t *testing.T) int {
	t.Helper()
	s := os.Getenv("CT_ORACLE_SCALE")
	if s == "" {
		return 1
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		t.Fatalf("CT_ORACLE_SCALE=%q: want a positive integer", s)
	}
	return n
}

// records collects a campaign's run records in the order it delivers
// them.
type records []campaign.RunRecord

func (r *records) Record(rr campaign.RunRecord) { *r = append(*r, rr) }

// forkVsWhole runs one draw both ways and fails t unless the fork was
// taken and matches the whole run: wire result, run record, final engine
// fingerprint and RNG position. draw is called once per path, since a
// run takes over its draw's stream.
func forkVsWhole(t *testing.T, x *randomExecutor, j fleet.Job, draw func() draw) fleet.Result {
	t.Helper()
	d := draw()
	frun, frr, ok := x.fork(d)
	if !ok {
		t.Errorf("%s seed %d at %v: fork abandoned", j.System, j.Seed, d.at)
		return fleet.Result{}
	}
	fork := x.result(j, d, frun, frr)
	d = draw()
	wrun, wrr := x.whole(d)
	whole := x.result(j, d, wrun, wrr)
	if !reflect.DeepEqual(fork, whole) || !reflect.DeepEqual(fork.RunRecord(), whole.RunRecord()) {
		t.Errorf("%s seed %d at %v: fork\n%+v\nwhole run\n%+v", j.System, j.Seed, d.at, fork, whole)
	}
	if f, w := frun.Engine().Fingerprint(), wrun.Engine().Fingerprint(); f != w {
		t.Errorf("%s seed %d at %v: final fingerprint fork %+v, whole run %+v", j.System, j.Seed, d.at, f, w)
	}
	if f, w := frun.Engine().Rand().Int63(), wrun.Engine().Rand().Int63(); f != w {
		t.Errorf("%s seed %d at %v: RNG position differs after the run (next draw %d vs %d)", j.System, j.Seed, d.at, f, w)
	}
	return whole
}

// TestRandomForkMatchesWholeRun is the random baseline's fork oracle: on
// every system, every one of a campaign's 300 jobs forked from the
// prefix ladder equals its whole run from t = 0, and so do forced
// injection times on every reference event time (the fault must come
// first among events at its instant), at 0 and at the baseline duration.
// The campaign itself, at one and at four workers, folds to the Result
// and records of the whole runs, and no fork falls back.
func TestRandomForkMatchesWholeRun(t *testing.T) {
	scale := oracleScale(t)
	forks, fallbacks := cloneForks.Value(), cloneFallbacks.Value()
	forked := 0
	for _, r := range append(all.Runners(), all.Extensions()...) {
		for _, seed := range []int64{11, 1009} {
			b := trigger.MeasureBaseline(r, seed, scale, 1, 0)
			opts := Options{Seed: seed, Scale: scale, Runs: 300}
			opts.defaults()
			x := newRandomExecutor(r, b, opts)
			if len(x.prefix.ladder) == 0 {
				t.Fatalf("%s: no prefix ladder", r.Name())
			}

			want := newResult(r.Name())
			var wantRecords []campaign.RunRecord
			for i := 0; i < opts.Runs; i++ {
				j := fleet.Job{System: r.Name(), Campaign: "random", Run: i, Seed: seed + int64(i), Scale: scale}
				res := forkVsWhole(t, x, j, func() draw { return x.draw(j.Seed) })
				want.record(res)
				wantRecords = append(wantRecords, res.RunRecord())
				forked++
			}

			// Forced injection times: 0, D, and every reference event
			// time, which ties the fault with an event of the prefix.
			ats := []sim.Time{0, b.Duration}
			for _, fp := range x.prefix.fences[1:] {
				ats = append(ats, fp.Now)
			}
			j := fleet.Job{System: r.Name(), Campaign: "random", Seed: seed, Scale: scale}
			for _, at := range ats {
				forkVsWhole(t, x, j, func() draw {
					d := x.draw(j.Seed)
					d.at = at
					return d
				})
				forked++
			}

			for _, workers := range []int{1, 4} {
				rec := &records{}
				o := opts
				o.Config = campaign.Config{Workers: workers, Recorder: rec}
				if got := Random(r, b, o); !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d workers %d: campaign\n%+v\nwhole runs\n%+v", r.Name(), seed, workers, got, want)
				}
				if !reflect.DeepEqual([]campaign.RunRecord(*rec), wantRecords) {
					t.Errorf("%s seed %d workers %d: run records differ from the whole runs'", r.Name(), seed, workers)
				}
				forked += opts.Runs
			}
		}
	}
	// The fork census: every job above was served by a fork.
	if got := cloneFallbacks.Value() - fallbacks; got != 0 {
		t.Errorf("%d forks fell back to the whole run, want 0", got)
	}
	if got := int(cloneForks.Value() - forks); got != forked {
		t.Errorf("%d forks served, want %d", got, forked)
	}
}

// nonCloneableRun hides the concrete run behind the bare cluster.Run
// interface, so the Cloneable type assertion fails.
type nonCloneableRun struct{ cluster.Run }

type nonCloneableRunner struct{ *toysys.Runner }

func (r nonCloneableRunner) NewRun(cfg cluster.Config) cluster.Run {
	return nonCloneableRun{r.Runner.NewRun(cfg)}
}

// wholeRuns folds the campaign's jobs, each run from t = 0.
func wholeRuns(x *randomExecutor) *Result {
	res := newResult(x.runner.Name())
	for i := 0; i < x.opts.Runs; i++ {
		j := fleet.Job{System: x.runner.Name(), Campaign: "random", Run: i, Seed: x.opts.Seed + int64(i), Scale: x.opts.Scale}
		d := x.draw(j.Seed)
		run, rr := x.whole(d)
		res.record(x.result(j, d, run, rr))
	}
	return res
}

// The fork has two ways out to the whole run: a system that is not
// Cloneable gets no ladder, and a tripped fence abandons the fork. Both
// campaigns equal the whole runs'; only the fence counts a fallback.
func TestRandomFallsBackToWholeRuns(t *testing.T) {
	b := trigger.MeasureBaseline(&toysys.Runner{}, 1, 1, 1, 0)
	opts := Options{Seed: 1, Runs: 40}
	opts.defaults()

	x := newRandomExecutor(nonCloneableRunner{&toysys.Runner{}}, b, opts)
	if n := len(x.prefix.ladder); n != 0 {
		t.Fatalf("non-Cloneable system got %d rungs", n)
	}
	forks, fallbacks := cloneForks.Value(), cloneFallbacks.Value()
	if got, want := Random(nonCloneableRunner{&toysys.Runner{}}, b, opts), wholeRuns(x); !reflect.DeepEqual(got, want) {
		t.Errorf("non-Cloneable campaign\n%+v\nwhole runs\n%+v", got, want)
	}
	if cloneForks.Value() != forks || cloneFallbacks.Value() != fallbacks {
		t.Error("a non-Cloneable campaign counted forks or fallbacks")
	}

	// Shift every recorded fence: each fork must now trip as its fault
	// fires and hand its job to the whole run.
	x = newRandomExecutor(&toysys.Runner{}, b, opts)
	for i := range x.prefix.fences {
		x.prefix.fences[i].Seq++
	}
	want := wholeRuns(x)
	got := newResult("toysys")
	for i := 0; i < opts.Runs; i++ {
		got.record(x.Execute(fleet.Job{System: "toysys", Campaign: "random", Run: i, Seed: opts.Seed + int64(i), Scale: 1}))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fenced-off campaign\n%+v\nwhole runs\n%+v", got, want)
	}
	if n := int(cloneFallbacks.Value() - fallbacks); n != opts.Runs {
		t.Errorf("%d fallbacks, want one per job (%d)", n, opts.Runs)
	}
}
