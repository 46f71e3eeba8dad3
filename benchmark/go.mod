// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive points at the repository it measures,
// and the repro/ prefix keeps repro/internal importable.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
