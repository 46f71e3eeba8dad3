// End-to-end fleet tests: the acceptance bar is that N loopback
// workers produce a triage store and report tables byte-identical to
// the single-process campaign at any N, including after killing and
// restarting a worker mid-shard and after restarting the coordinator
// from its per-shard checkpoints.
package fleet_test

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/triage"
	"repro/internal/trigger"
)

// singleProcess runs the plain single-process campaigns over the given
// systems in order, one shared triage store, and returns the per-system
// reports plus the store bytes — the reference the fleet must match.
func singleProcess(t *testing.T, systems []cluster.Runner, optsOf func() core.Options) (map[string][]trigger.Report, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "triage.jsonl")
	store, err := triage.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	reports := map[string][]trigger.Report{}
	for _, r := range systems {
		opts := optsOf()
		opts.Config = campaign.Config{Workers: 1, Recorder: triage.NewRecorder(store)}
		res := core.Run(r, opts)
		reports[r.Name()] = res.Reports
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return reports, b
}

// planAll plans one campaign per system.
func planAll(t *testing.T, systems []cluster.Runner, optsOf func() core.Options) []fleet.Plan {
	t.Helper()
	plans := make([]fleet.Plan, 0, len(systems))
	for _, r := range systems {
		plan, err := core.PlanFleet(r, core.SharedArtifacts, optsOf())
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Jobs) == 0 {
			t.Fatalf("PlanFleet(%s) produced no jobs", r.Name())
		}
		plans = append(plans, plan)
	}
	return plans
}

// startWorkers launches n loopback workers named prefix0, prefix1, ...
// and returns a wait func. Distinct prefixes keep the workers of one
// test apart in the coordinator's per-worker drain bookkeeping.
func startWorkers(t *testing.T, addr, prefix string, n int, maxJobs int) func() {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		w := &fleet.Worker{
			Base:    "http://" + addr,
			Name:    fmt.Sprintf("%s%d", prefix, i),
			Factory: core.FleetExecutors(core.SharedArtifacts, all.ByName),
			Poll:    2 * time.Millisecond,
			MaxJobs: maxJobs,
		}
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	return wg.Wait
}

// runFleet drives a complete fleet campaign with n loopback workers and
// returns the per-plan results and the triage store bytes.
func runFleet(t *testing.T, plans []fleet.Plan, n int) ([]fleet.PlanResult, []byte, fleet.Stats) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "triage.jsonl")
	store, err := triage.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fleet.New(fleet.Config{
		Addr:      "127.0.0.1:0",
		Plans:     plans,
		ShardSize: 3,
		LeaseTTL:  time.Minute,
		Recorder:  triage.NewRecorder(store),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	wait := startWorkers(t, c.Addr(), "w", n, 0)
	results := c.Wait()
	wait()
	stats := c.Stats()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return results, b, stats
}

// reportsOf renders one plan's merged results as report rows.
func reportsOf(pr fleet.PlanResult) []trigger.Report {
	reps := make([]trigger.Report, len(pr.Results))
	for i, res := range pr.Results {
		reps[i] = trigger.ResultReport(res)
	}
	return reps
}

// bySystem keys the per-plan report rows by system, for fleets that run
// one plan per system.
func bySystem(results []fleet.PlanResult) map[string][]trigger.Report {
	reports := map[string][]trigger.Report{}
	for _, pr := range results {
		reports[pr.Spec.System] = reportsOf(pr)
	}
	return reports
}

func compareReports(t *testing.T, label string, want, got map[string][]trigger.Report) {
	t.Helper()
	for sys, w := range want {
		g, ok := got[sys]
		if !ok {
			t.Errorf("%s: no fleet results for %s", label, sys)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			i := 0
			for i < len(w) && i < len(g) && reflect.DeepEqual(w[i], g[i]) {
				i++
			}
			t.Errorf("%s: %s reports diverge at run %d:\n  single: %+v\n  fleet:  %+v", label, sys, i, at(w, i), at(g, i))
		}
	}
}

func at(reps []trigger.Report, i int) any {
	if i < len(reps) {
		return reps[i]
	}
	return "(missing)"
}

// TestFleetByteIdenticalAllSystems is the acceptance test: the default
// crash campaign over all seven systems, executed by 1 and by 4
// loopback workers, must produce report tables and a triage store
// byte-identical to the single-process pipeline.
func TestFleetByteIdenticalAllSystems(t *testing.T) {
	systems := all.Runners()
	optsOf := func() core.Options { return core.Options{Seed: 11, Scale: 1} }
	want, wantStore := singleProcess(t, systems, optsOf)

	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			plans := planAll(t, systems, optsOf)
			got, gotStore, stats := runFleet(t, plans, n)
			compareReports(t, fmt.Sprintf("N=%d", n), want, bySystem(got))
			if string(wantStore) != string(gotStore) {
				t.Errorf("N=%d: triage store differs from single-process (%d vs %d bytes)", n, len(wantStore), len(gotStore))
			}
			if !stats.Drained || stats.Done != stats.Total {
				t.Errorf("N=%d: fleet not drained: %+v", n, stats)
			}
		})
	}
}

// TestFleetFaultFamilies runs recovery and partition campaigns through
// the fleet on two systems, pinning the Spec round-trip of the
// fault-family options.
func TestFleetFaultFamilies(t *testing.T) {
	systems := []cluster.Runner{mustRunner(t, "toysys"), mustRunner(t, "zookeeper")}
	for _, tc := range []struct {
		name   string
		optsOf func() core.Options
	}{
		{"recovery", func() core.Options {
			return core.Options{Seed: 11, Scale: 1, Recovery: &trigger.RecoveryOptions{RestartDelay: 500 * sim.Millisecond}}
		}},
		{"partition", func() core.Options {
			return core.Options{Seed: 11, Scale: 1, Partition: &trigger.PartitionOptions{}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantStore := singleProcess(t, systems, tc.optsOf)
			got, gotStore, _ := runFleet(t, planAll(t, systems, tc.optsOf), 2)
			compareReports(t, tc.name, want, bySystem(got))
			if string(wantStore) != string(gotStore) {
				t.Errorf("%s: triage store differs from single-process", tc.name)
			}
		})
	}
}

// TestFleetSpecKeyCoversFaultParameters runs two recovery campaigns of
// one (system, seed, scale) that differ only in RestartDelay through ONE
// worker. The worker caches executors by Spec.Key(), so a key that
// leaves the recovery parameters out would execute the second plan's
// jobs on the first plan's executor; both plans and the triage store
// must instead equal the in-process campaigns byte for byte.
func TestFleetSpecKeyCoversFaultParameters(t *testing.T) {
	r := mustRunner(t, "yarn")
	optsOf := func(delay sim.Time) core.Options {
		return core.Options{Seed: 11, Scale: 1, Recovery: &trigger.RecoveryOptions{RestartDelay: delay}}
	}
	delays := []sim.Time{500 * sim.Millisecond, 8 * sim.Second}

	path := filepath.Join(t.TempDir(), "triage.jsonl")
	store, err := triage.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]trigger.Report
	var plans []fleet.Plan
	for _, d := range delays {
		opts := optsOf(d)
		opts.Config = campaign.Config{Workers: 1, Recorder: triage.NewRecorder(store)}
		want = append(want, core.Run(r, opts).Reports)
		plan, err := core.PlanFleet(r, core.SharedArtifacts, optsOf(d))
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	wantStore, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStore, _ := runFleet(t, plans, 1)
	for p, d := range delays {
		compareReports(t, fmt.Sprintf("RestartDelay=%v", d),
			map[string][]trigger.Report{r.Name(): want[p]},
			map[string][]trigger.Report{r.Name(): reportsOf(got[p])})
	}
	if string(wantStore) != string(gotStore) {
		t.Errorf("triage store differs from single-process (%d vs %d bytes)", len(wantStore), len(gotStore))
	}
}

func mustRunner(t *testing.T, name string) cluster.Runner {
	t.Helper()
	r, err := all.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFleetGuidedRejected pins that consistency-guided campaigns stay
// in-process: their ordinals derive from violation context that is not
// wire-encodable.
func TestFleetGuidedRejected(t *testing.T) {
	opts := core.Options{Seed: 11, Scale: 1, Partition: &trigger.PartitionOptions{Guided: true}}
	if _, err := core.PlanFleet(mustRunner(t, "toysys"), core.SharedArtifacts, opts); err == nil {
		t.Fatal("PlanFleet accepted a consistency-guided campaign")
	}
}

// TestFleetWorkerKilledMidShard kills a worker mid-shard (job budget
// exhausted) and lets a replacement finish after the lease expires: the
// final results and triage store must still be byte-identical, the
// re-queued shard resuming from its JSONL checkpoint.
func TestFleetWorkerKilledMidShard(t *testing.T) {
	systems := []cluster.Runner{mustRunner(t, "toysys")}
	optsOf := func() core.Options { return core.Options{Seed: 11, Scale: 1} }
	want, wantStore := singleProcess(t, systems, optsOf)

	dir := t.TempDir()
	path := filepath.Join(dir, "triage.jsonl")
	store, err := triage.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "shards")
	// ShardSize 2: the killed worker leaves its shard with ONE remaining
	// job, which the steal path refuses (it needs at least two), so the
	// only way the campaign can finish is the lease-expiry re-queue.
	c, err := fleet.New(fleet.Config{
		Addr:      "127.0.0.1:0",
		Plans:     planAll(t, systems, optsOf),
		ShardSize: 2,
		LeaseTTL:  50 * time.Millisecond,
		Dir:       ckptDir,
		Recorder:  triage.NewRecorder(store),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// Worker 1 executes exactly one job of its two-job shard, then dies.
	startWorkers(t, c.Addr(), "dead", 1, 1)()
	st := c.Stats()
	if st.Done != 1 {
		t.Fatalf("after killed worker: Done = %d, want 1", st.Done)
	}
	if got := countCheckpointLines(t, ckptDir); got != 1 {
		t.Fatalf("checkpoint lines after killed worker = %d, want 1", got)
	}

	// The replacement must wait out the dead worker's lease, then finish
	// everything — without re-executing the checkpointed job (the
	// coordinator only leases the remaining set).
	wait := startWorkers(t, c.Addr(), "replacement", 1, 0)
	results := c.Wait()
	wait()
	st = c.Stats()
	if st.Expiries == 0 {
		t.Errorf("expected at least one lease expiry, got %+v", st)
	}
	if st.Duplicates != 0 {
		t.Errorf("replacement re-executed checkpointed work: %d duplicates", st.Duplicates)
	}

	// Metrics endpoint carries the fleet counters.
	metrics := httpGet(t, "http://"+c.Addr()+"/metrics")
	for _, name := range []string{"crashtuner_fleet_leases_total", "crashtuner_fleet_lease_expiries_total", "crashtuner_fleet_jobs_total"} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	compareReports(t, "killed worker", want, bySystem(results))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantStore) != string(b) {
		t.Errorf("triage store differs from single-process after worker kill")
	}
}

// TestFleetCoordinatorRestart kills the coordinator mid-campaign and
// restarts it over the same checkpoint directory: the restored
// coordinator must resume from the per-shard JSONL checkpoints (not
// re-execute finished jobs) and still produce byte-identical output.
func TestFleetCoordinatorRestart(t *testing.T) {
	systems := []cluster.Runner{mustRunner(t, "toysys")}
	optsOf := func() core.Options { return core.Options{Seed: 11, Scale: 1} }
	want, wantStore := singleProcess(t, systems, optsOf)

	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "shards")
	plans := planAll(t, systems, optsOf)

	// First incarnation: two jobs execute, then the process "dies"
	// (Close flushes checkpoints like an exiting process would).
	c1, err := fleet.New(fleet.Config{
		Addr: "127.0.0.1:0", Plans: plans, ShardSize: 2, LeaseTTL: time.Minute, Dir: ckptDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	startWorkers(t, c1.Addr(), "first", 1, 2)()
	done := c1.Stats().Done
	if done != 2 {
		t.Fatalf("first incarnation: Done = %d, want 2", done)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation resumes from the shard checkpoints.
	path := filepath.Join(dir, "triage.jsonl")
	store, err := triage.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fleet.New(fleet.Config{
		Addr: "127.0.0.1:0", Plans: planAll(t, systems, optsOf), ShardSize: 2, LeaseTTL: time.Minute,
		Dir: ckptDir, Resume: true,
		Recorder: triage.NewRecorder(store),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Restored != done {
		t.Fatalf("restored = %d, want %d", st.Restored, done)
	}
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	wait := startWorkers(t, c2.Addr(), "second", 2, 0)
	results := c2.Wait()
	wait()
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	compareReports(t, "coordinator restart", want, bySystem(results))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantStore) != string(b) {
		t.Errorf("triage store differs from single-process after coordinator restart")
	}
}

// TestFleetAwaitWorkers pins the drain grace: after the fleet drains,
// AwaitWorkers returns once every live worker has been told 410, and
// does not wait on a worker that died mid-campaign (its lastSeen ages
// past the lease TTL) — the dead worker is never told, so only the age
// check lets AwaitWorkers return before its grace.
func TestFleetAwaitWorkers(t *testing.T) {
	systems := []cluster.Runner{mustRunner(t, "toysys")}
	optsOf := func() core.Options { return core.Options{Seed: 11, Scale: 1} }
	const ttl = 50 * time.Millisecond
	c, err := fleet.New(fleet.Config{
		Addr:      "127.0.0.1:0",
		Plans:     planAll(t, systems, optsOf),
		ShardSize: 2,
		LeaseTTL:  ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// One worker dies after a single job; a second drains the rest and
	// exits on the 410 (startWorkers fails the test on any worker error,
	// so a closed-port exit would be caught).
	startWorkers(t, c.Addr(), "dead", 1, 1)()
	wait := startWorkers(t, c.Addr(), "live", 1, 0)
	c.Wait()
	// The bound sits far above scheduler noise and far below the grace,
	// which is what waiting on the dead worker would cost.
	start := time.Now()
	c.AwaitWorkers(10 * time.Second)
	if took := time.Since(start); took > ttl+2*time.Second {
		t.Errorf("AwaitWorkers blocked %v, want about LeaseTTL (%v): it waited on the dead worker", took, ttl)
	}
	wait()
}

func countCheckpointLines(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines += strings.Count(string(b), "\n")
	}
	return lines
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
