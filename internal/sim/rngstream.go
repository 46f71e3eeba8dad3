package sim

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Seeding math/rand's lagged-Fibonacci source walks a 607-entry feedback
// register through hundreds of LCG steps — ~10% of the cost of
// constructing a run, paid again by every snapshot-forked injection run
// even though every run of a campaign shares one seed. The engine
// therefore draws from a per-seed replay buffer: the first engine on a
// seed advances a master source and records its raw Uint64 draws; later
// engines replay the recorded prefix and only extend it (under the
// buffer's lock) when they out-draw every predecessor. The replayed
// stream is bit-identical to a freshly seeded source, so schedules —
// and with them the snapshot fingerprint fence — are unchanged.
//
// The published prefix is an atomically swapped slice that only ever
// grows, so replaying engines read it without locking; a buffer's memory
// is bounded by the draw count of the longest run on its seed, and the
// per-process seed table is reset once it reaches maxSeedBuffers, so
// one-shot seeds stop accumulating. The bound sits well above one random
// baseline sweep's run seeds (300 per system by default, the same 300 for
// every system), so a sweep seeds each master once, not once per system.
//
// A master source is 4.9 KB, most of a buffer, so only the maxMasters
// newest buffers keep theirs; an older buffer still replays its prefix,
// and re-seeds a master only if an engine draws past it. Keeping all 1024
// masters would retain 4 MB more heap, enough to shift the garbage
// collector's pacing for whatever the process runs next.
const (
	maxSeedBuffers = 1024
	maxMasters     = 256
)

var (
	seedMu   sync.Mutex
	seedBufs = map[int64]*seedBuffer{}
	masters  []*seedBuffer // buffers that own a master, oldest first
)

// seedBuffer owns the master source for one seed and the published
// prefix of its draws.
type seedBuffer struct {
	seed int64
	vals atomic.Value  // []uint64, immutable prefix, grows only
	mu   sync.Mutex    // guards master and extension
	src  rand.Source64 // nil once retired
}

func bufferFor(seed int64) *seedBuffer {
	seedMu.Lock()
	defer seedMu.Unlock()
	if b := seedBufs[seed]; b != nil {
		return b
	}
	if len(seedBufs) >= maxSeedBuffers {
		seedBufs = make(map[int64]*seedBuffer)
		masters = nil
	}
	if len(masters) >= maxMasters {
		old := masters[0]
		old.mu.Lock()
		old.src = nil
		old.mu.Unlock()
		masters = masters[1:]
	}
	b := &seedBuffer{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
	b.vals.Store([]uint64(nil))
	seedBufs[seed] = b
	masters = append(masters, b)
	return b
}

// at returns the i'th draw of the seed's stream, extending the recorded
// prefix if no engine has drawn that far yet.
func (b *seedBuffer) at(i int) uint64 {
	if v := b.vals.Load().([]uint64); i < len(v) {
		return v[i]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	v := b.vals.Load().([]uint64)
	if b.src == nil && i >= len(v) {
		// A retired master: seed it again and skip the recorded prefix.
		b.src = rand.NewSource(b.seed).(rand.Source64)
		for range v {
			b.src.Uint64()
		}
	}
	for i >= len(v) {
		// Append fills slots past len and the longer slice is published
		// after they are written, so lock-free readers of the previously
		// published prefix never observe the new writes.
		v = append(v, b.src.Uint64())
	}
	b.vals.Store(v)
	return v[i]
}

// Stream is a cursor over a seed's random stream: the draws an engine
// built by NewEngine(seed) makes. A caller can draw from a Stream before
// the engine that continues it exists, then hand it over with
// Engine.SetStream.
type Stream struct {
	*rand.Rand
	src *streamSource
}

// NewStream returns a Stream positioned at the start of seed's stream.
func NewStream(seed int64) Stream {
	src := &streamSource{buf: bufferFor(seed)}
	return Stream{Rand: rand.New(src), src: src}
}

// streamSource is a rand.Source64 cursor over a seed's replay buffer.
// Int63 derives from Uint64 exactly like math/rand's rngSource, so a
// rand.Rand on a streamSource produces the same values as one on a
// freshly seeded rngSource.
type streamSource struct {
	buf *seedBuffer
	pos int
}

func (s *streamSource) Uint64() uint64 {
	v := s.buf.at(s.pos)
	s.pos++
	return v
}

func (s *streamSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Seed is unsupported: engines never reseed, and reseeding would detach
// the cursor from the shared stream.
func (s *streamSource) Seed(int64) {
	panic("sim: reseeding an engine's replayed rand source")
}
