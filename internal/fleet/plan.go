package fleet

import (
	"encoding/json"

	"repro/internal/sim"
)

// RecoverySpec is the wire form of the trigger's recovery options.
type RecoverySpec struct {
	RestartDelay        sim.Time `json:"restartDelay,omitempty"`
	SecondFaultDelay    sim.Time `json:"secondFaultDelay,omitempty"`
	SecondFaultShutdown bool     `json:"secondFaultShutdown,omitempty"`
}

// PartitionSpec is the wire form of the trigger's partition options.
// Guided mode is deliberately absent: guided ordinals are derived from
// invariant violations whose context (the violation's parties) is not
// wire-encodable, so guided campaigns stay in-process.
type PartitionSpec struct {
	// Mode is the cut mode name: "drop" (default), "hold" or "delay".
	Mode      string   `json:"mode,omitempty"`
	Delay     sim.Time `json:"delay,omitempty"`
	HealAfter sim.Time `json:"healAfter,omitempty"`
	HoldOpen  bool     `json:"holdOpen,omitempty"`
}

// Spec is the campaign context a worker needs to execute a plan's jobs:
// everything the single-process test phase would have configured on its
// Tester, wire-encoded. One Spec covers every job of one plan; the
// job's own Scale may exceed Spec.Scale in a retry wave (the baseline
// is always measured at Spec.Scale, like the single-process retry
// tester, which copies the base-scale baseline).
type Spec struct {
	System   string `json:"system"`
	Campaign string `json:"campaign"`
	Seed     int64  `json:"seed"`
	Scale    int    `json:"scale"`
	// BaselineRuns is the fault-free census size (default 3).
	BaselineRuns int `json:"baselineRuns,omitempty"`
	// Deadline bounds individual runs in virtual time (default 1h).
	Deadline sim.Time `json:"deadline,omitempty"`
	// MaxSteps bounds each run's event count (0: the sim default).
	MaxSteps uint64 `json:"maxSteps,omitempty"`
	// RandomTarget replaces the stash query with a random alive node.
	RandomTarget bool `json:"randomTarget,omitempty"`

	Recovery  *RecoverySpec  `json:"recovery,omitempty"`
	Partition *PartitionSpec `json:"partition,omitempty"`
}

// Key identifies the spec for executor caching on workers. It is the
// spec's canonical JSON encoding, so every field — the recovery and
// partition parameters, and any field added later — tells two specs
// apart: two plans differing only in a fault parameter must never share
// a cached executor.
func (s Spec) Key() string {
	// Cannot fail: Spec holds only strings, integers, booleans and
	// pointers to structs of those.
	b, _ := json.Marshal(s)
	return string(b)
}

// Plan is the planning half of a campaign: the enumerated jobs of one
// system plus the retry rule. The coordinator shards Plan.Jobs; after
// every wave-1 job has a result, jobs whose outcome is OutcomeNotHit
// re-execute at RetryScale (the single-process retry-at-final-scale
// rule), and the retry results overwrite their originals in the final
// table.
type Plan struct {
	Spec Spec  `json:"spec"`
	Jobs []Job `json:"jobs"`
	// RetryScale, when greater than Spec.Scale, is the profiler's final
	// scale: points discovered only at larger profiling scales may not
	// execute at the base scale, so their NotHit runs retry there.
	RetryScale int `json:"retryScale,omitempty"`
}
