package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/systems/cluster"
)

// pipeline-cold: one uncached core.Run per op, the cost of
// `crashtuner -system X` and of a row of the paper's Tables 5 and 11.
// Block b runs its op seed at scales 1 and 4 on all seven systems. Nothing
// is shared between ops, so the analysis layers (ir, logparse,
// metainfo, crashpoint) do most of the work and snapshot forks almost
// none.
var pipelineColdDef = workloadDef{
	name:         "pipeline-cold",
	scale:        4,
	goldenBlocks: 2,
	setupReps:    5,
	build:        newPipelineCold,
}

var pipelineColdScales = []int{1, 4}

type pipelineCold struct {
	seed    int64
	runners []cluster.Runner
}

// newPipelineCold builds the runners and runs one op per system at
// scale 1 as warm-up, so lazy initialisation in the program and the
// runtime is paid before timing starts.
func newPipelineCold(seed int64) workload {
	w := &pipelineCold{seed: seed, runners: systems()}
	for _, r := range w.runners {
		core.Run(r, pipelineOptions(seed, 1))
	}
	return w
}

func (w *pipelineCold) block(b int) []op {
	var ops []op
	for _, scale := range pipelineColdScales {
		for _, r := range w.runners {
			opts := pipelineOptions(opSeed(w.seed, b), scale)
			ops = append(ops, op{
				name: fmt.Sprintf("%s seed=%d scale=%d", r.Name(), opts.Seed, scale),
				run: func(tr *spans) ([]verdicts, error) {
					var res *core.Result
					if tr == nil {
						res = core.Run(r, opts)
					} else {
						tr.time("op", func() { res = decomposedRun(tr, r, opts, nil, nil) })
					}
					return []verdicts{verdictsOf(r.Name(), res.Reports)}, nil
				},
			})
		}
	}
	return ops
}
