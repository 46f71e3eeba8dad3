// Package all enumerates the systems under test, in the order the paper
// evaluates them (Table 4).
//
// The runners handed out here share one IR program per system: Program()
// builds the model the first time it is called in the process and returns
// that same read-only *ir.Program afterwards, together with everything
// Build indexed on it and logparse.MatcherFor derived from it. A system's
// own Runner (&yarn.Runner{}) still builds a fresh program per call.
package all

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ir"
	"repro/internal/systems/cassandra"
	"repro/internal/systems/cluster"
	"repro/internal/systems/hbase"
	"repro/internal/systems/hdfs"
	"repro/internal/systems/kubelike"
	"repro/internal/systems/toysys"
	"repro/internal/systems/yarn"
	"repro/internal/systems/zookeeper"
)

// shared is a system's runner with its program built once, lazily: the
// model is a constant of the system, while everything else a runner does
// depends on the Config of the run.
type shared struct {
	cluster.Runner
	once    sync.Once
	program *ir.Program
}

// Program implements cluster.Runner.
func (s *shared) Program() *ir.Program {
	s.once.Do(func() { s.program = s.Runner.Program() })
	return s.program
}

// systems lists Table 4's five, then the extensions.
var systems = []cluster.Runner{
	&shared{Runner: &yarn.Runner{}},
	&shared{Runner: &hdfs.Runner{}},
	&shared{Runner: &hbase.Runner{}},
	&shared{Runner: &zookeeper.Runner{}},
	&shared{Runner: &cassandra.Runner{}},
	&shared{Runner: &kubelike.Runner{}},
	&shared{Runner: &toysys.Runner{}},
}

// Runners returns the runner of each system, in Table 4 order.
func Runners() []cluster.Runner { return slices.Clone(systems[:5]) }

// Extensions returns the systems beyond the paper's Table 4: the §4.4
// Kubernetes-style control plane and the authoring template.
func Extensions() []cluster.Runner { return slices.Clone(systems[5:]) }

// ByName returns the runner for a system name, including extensions.
func ByName(name string) (cluster.Runner, error) {
	for _, r := range systems {
		if r.Name() == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("unknown system %q (want yarn, hdfs, hbase, zookeeper, cassandra, kubelike or toysys)", name)
}

// Versions returns the Table 4 version strings for display.
func Versions() map[string]string {
	return map[string]string{
		"yarn":      "3.3.0-SNAPSHOT (simulated)",
		"hdfs":      "3.3.0-SNAPSHOT (simulated)",
		"hbase":     "3.0.0-SNAPSHOT (simulated)",
		"zookeeper": "3.5.4-beta (simulated)",
		"cassandra": "3.11.4 (simulated)",
	}
}
