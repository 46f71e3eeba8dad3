package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// campaign-families: one ArtifactCache.Run per op with the analysis
// already cached, the cost of `ctbench -exp recovery/partition` and of
// a fault-parameter sweep where one snapshot plan serves many
// campaigns. Block b takes its op seed: a fresh cache and the seven cached
// analyses are built untimed, then the 25 variants run on each system
// at scale 32. The cache is dropped with the block, which keeps peak
// memory at one seed's plans. sim.Engine.Run under clone forks,
// profiler.Collect and trigger.MeasureBaseline dominate; ir is absent.
var campaignFamiliesDef = workloadDef{
	name:         "campaign-families",
	scale:        campaignScale,
	goldenBlocks: 1,
	setupReps:    5,
	build:        newCampaignFamilies,
}

const campaignScale = 32

// variant is one fault-family parameter set of the sweep.
type variant struct {
	name      string
	recovery  *trigger.RecoveryOptions
	partition *trigger.PartitionOptions
}

// campaignVariants is the sweep: the crash campaign, 12 recovery
// parameter sets, 9 partition parameter sets, partition-aware recovery
// with the cut held open or not, and the consistency-guided campaign.
func campaignVariants() []variant {
	vs := []variant{{name: "crash"}}
	for _, restart := range []sim.Time{sim.Second / 2, sim.Second, 2 * sim.Second, 4 * sim.Second} {
		for _, second := range []sim.Time{0, sim.Second / 4, sim.Second} {
			vs = append(vs, variant{
				name:     fmt.Sprintf("recovery restart=%v second=%v", restart, second),
				recovery: &trigger.RecoveryOptions{RestartDelay: restart, SecondFaultDelay: second},
			})
		}
	}
	for _, mode := range []sim.PartitionMode{sim.PartitionDrop, sim.PartitionHold, sim.PartitionDelay} {
		for _, heal := range []sim.Time{sim.Second, 10 * sim.Second, -1} {
			vs = append(vs, variant{
				name:      fmt.Sprintf("partition mode=%v heal=%v", mode, heal),
				partition: &trigger.PartitionOptions{Mode: mode, HealAfter: heal},
			})
		}
	}
	for _, hold := range []bool{false, true} {
		vs = append(vs, variant{
			name:      fmt.Sprintf("partition-recovery holdopen=%v", hold),
			recovery:  &trigger.RecoveryOptions{},
			partition: &trigger.PartitionOptions{HoldOpen: hold},
		})
	}
	return append(vs, variant{name: "partition guided", partition: &trigger.PartitionOptions{Guided: true}})
}

func (v variant) options(seed int64, scale int) core.Options {
	opts := pipelineOptions(seed, scale)
	opts.Recovery, opts.Partition = v.recovery, v.partition
	return opts
}

type campaignFamilies struct {
	seed     int64
	runners  []cluster.Runner
	variants []variant
}

func newCampaignFamilies(seed int64) workload {
	return &campaignFamilies{seed: seed, runners: systems(), variants: campaignVariants()}
}

func (w *campaignFamilies) block(b int) []op {
	seed := opSeed(w.seed, b)
	cache := core.NewArtifactCache()
	for _, r := range w.runners {
		cache.AnalysisPhase(r, pipelineOptions(seed, campaignScale))
	}
	var ops []op
	for _, r := range w.runners {
		for _, v := range w.variants {
			opts := v.options(seed, campaignScale)
			ops = append(ops, op{
				name: fmt.Sprintf("%s seed=%d %s", r.Name(), seed, v.name),
				run: func(tr *spans) ([]verdicts, error) {
					var res *core.Result
					if tr == nil {
						res = cache.Run(r, opts)
					} else {
						tr.time("op", func() { res = decomposedRun(tr, r, opts, cache, nil) })
					}
					return []verdicts{verdictsOf(r.Name(), res.Reports)}, nil
				},
			})
		}
	}
	return ops
}
