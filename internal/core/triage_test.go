package core

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/crashpoint"
	"repro/internal/obs"
	"repro/internal/systems/toysys"
	"repro/internal/triage"
	"repro/internal/trigger"
)

// runCampaignInto executes the full toysys pipeline with a triage
// recorder appending the failing runs to the store at path.
func runCampaignInto(t *testing.T, path string) *Result {
	t.Helper()
	store, err := triage.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(&toysys.Runner{}, Options{
		Config: campaign.Config{Recorder: triage.NewRecorder(store)},
		Seed:   7,
	})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// Running the identical campaign twice against one store must be
// invisible in every rendered artifact: the index dedups the repeated
// records, the cluster table is byte-identical, and the diff against
// the first snapshot is empty.
func TestTriageRecorderIdempotentAcrossRepeats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	res := runCampaignInto(t, path)
	ix1, err := triage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ix1.Len() == 0 {
		t.Fatal("campaign recorded no failing runs")
	}
	c1 := ix1.Clusters()
	if got := ix1.DistinctBugs(); got != res.Summary.DistinctBugs {
		t.Errorf("store DistinctBugs = %d, summary says %d", got, res.Summary.DistinctBugs)
	}
	table1 := triage.ClusterTable(c1)

	runCampaignInto(t, path)
	ix2, err := triage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != ix1.Len() {
		t.Errorf("repeat ingestion grew the index: %d -> %d records", ix1.Len(), ix2.Len())
	}
	c2 := ix2.Clusters()
	if table2 := triage.ClusterTable(c2); table2 != table1 {
		t.Errorf("cluster table changed across identical campaigns:\n--- first\n%s--- second\n%s", table1, table2)
	}
	if fresh := triage.Diff(c2, c1); len(fresh) != 0 {
		t.Errorf("second identical campaign surfaced %d new clusters", len(fresh))
	}
}

type eventSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *eventSink) Emit(ev obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// The confirmation pass replays the deterministic TOY-1 job failure
// through the real pipeline executor; it must reproduce and come back
// CONFIRMED, with its replay traced under the "triage" campaign.
func TestConfirmExecutorConfirmsDeterministicBug(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	runCampaignInto(t, path)
	ix, err := triage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var target *triage.Cluster
	for _, c := range ix.Clusters() {
		rep := c.Representative()
		if rep.Point == string(toysys.PtCommitGet) && rep.Outcome == trigger.JobFailure.String() {
			target = c
			break
		}
	}
	if target == nil {
		t.Fatal("no job-failure cluster for the TOY-1 crash point")
	}

	sink := &eventSink{}
	conf := triage.Confirm(target, sink, NewConfirmExecutor(&toysys.Runner{}, nil, Options{Seed: 7}))
	if conf.Label != triage.Confirmed {
		t.Errorf("label = %s, want %s (reproduced %d/%d)", conf.Label, triage.Confirmed, conf.Reproduced, conf.Runs)
	}
	if conf.Runs != 1 || conf.Reproduced != 1 {
		t.Errorf("deterministic bug reproduced %d/%d, want one exact replay", conf.Reproduced, conf.Runs)
	}
	if conf.Sig != target.Sig.Key() {
		t.Errorf("confirmation bound to %q, want %q", conf.Sig, target.Sig.Key())
	}
	if len(sink.events) == 0 {
		t.Fatal("confirmation emitted no events")
	}
	for _, ev := range sink.events {
		if ev.Scope.Campaign != "triage" || ev.Scope.System != "toysys" {
			t.Errorf("event scope = %+v, want triage/toysys", ev.Scope)
		}
	}
}

// A partition campaign's failing runs persist with "+partition" in the
// scenario; the confirmation executor must rebuild the cut (not a
// crash) and reproduce the deterministic split-brain with a stable
// signature, ingesting cleanly into the same store.
func TestConfirmExecutorReExecutesPartitionRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	store, err := triage.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Config:    campaign.Config{Recorder: triage.NewRecorder(store)},
		Seed:      7,
		Partition: &trigger.PartitionOptions{},
	}
	Run(&toysys.Runner{}, opts)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := triage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var target *triage.Cluster
	for _, c := range ix.Clusters() {
		rep := c.Representative()
		if rep.Outcome == trigger.SplitBrain.String() {
			if _, ok := crashpoint.ParseInjection(rep.Scenario); !ok {
				t.Fatalf("unparseable persisted scenario %q", rep.Scenario)
			}
			target = c
			break
		}
	}
	if target == nil {
		t.Fatal("partition campaign recorded no split-brain cluster")
	}

	conf := triage.Confirm(target, nil, NewConfirmExecutor(&toysys.Runner{}, nil, Options{Seed: 7}))
	if conf.Label != triage.Confirmed {
		t.Errorf("label = %s, want %s (reproduced %d/%d)", conf.Label, triage.Confirmed, conf.Reproduced, conf.Runs)
	}
	if conf.Sig != target.Sig.Key() {
		t.Errorf("confirmation bound to %q, want %q", conf.Sig, target.Sig.Key())
	}
}

// The executor shares the artifact cache when one is provided: a second
// executor for the same system must not recompute the analysis.
func TestConfirmExecutorUsesArtifactCache(t *testing.T) {
	cache := NewArtifactCache()
	r := &toysys.Runner{}
	NewConfirmExecutor(r, cache, Options{Seed: 7})
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after executor build, want 1", cache.Len())
	}
	NewConfirmExecutor(r, cache, Options{Seed: 7})
	if cache.Len() != 1 {
		t.Errorf("second executor grew the cache to %d entries", cache.Len())
	}
}

// A record without a crash point (a baseline-only observation) cannot
// be re-executed; the executor reports the replay as a harness error,
// which never matches a cluster.
func TestConfirmExecutorRejectsUnexecutableRecord(t *testing.T) {
	exec := NewConfirmExecutor(&toysys.Runner{}, nil, Options{Seed: 7})
	out := exec(triage.Record{System: "toysys", Campaign: "random", Run: 2, Seed: 7, Outcome: "hang"})
	if out.Outcome != trigger.HarnessError.String() {
		t.Errorf("outcome = %q, want harness-error", out.Outcome)
	}
	if out.Campaign != "triage" || out.Run != 0 {
		t.Errorf("record not rescoped to the confirmation campaign: %+v", out)
	}
}
