package sim

// ObserveThrows makes fn see every Throw on every engine, repeats
// included, until the returned function is called. It lets tests hold
// the full occurrence stream that the engine's list deduplicates.
func ObserveThrows(fn func(*Engine, Exception)) (stop func()) {
	throwHook = fn
	return func() { throwHook = nil }
}
