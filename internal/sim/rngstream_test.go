package sim

import (
	"math/rand"
	"testing"
)

// TestSeedTableSeedsEachSeedOnce: two passes over a random baseline
// sweep's 300 run seeds, as two systems of one sweep make them, find
// every seed's buffer from the first pass and replay its draws without
// seeding a master again; at most maxMasters buffers keep one.
func TestSeedTableSeedsEachSeedOnce(t *testing.T) {
	seedMu.Lock()
	seedBufs, masters = make(map[int64]*seedBuffer), nil
	seedMu.Unlock()
	first := make([]*seedBuffer, 300)
	draws := make([]int64, 300)
	for pass := 0; pass < 2; pass++ {
		for i := range first {
			s := NewStream(11 + int64(i))
			d := s.Int63n(1000)
			if pass == 0 {
				first[i], draws[i] = s.src.buf, d
			} else if s.src.buf != first[i] || d != draws[i] {
				t.Fatalf("seed %d: new buffer or new draw on the second pass", 11+i)
			}
		}
	}
	kept := 0
	for _, b := range first {
		if b.src != nil {
			kept++
		}
	}
	if kept > maxMasters {
		t.Errorf("%d buffers own a master, want at most %d", kept, maxMasters)
	}
}

// TestRetiredMasterExtendsTheStream: a buffer whose master was retired
// still yields the seed's stream past its recorded prefix.
func TestRetiredMasterExtendsTheStream(t *testing.T) {
	want := rand.New(rand.NewSource(77))
	b := bufferFor(77)
	s := &streamSource{buf: b}
	s.Uint64()
	b.mu.Lock()
	b.src = nil
	b.mu.Unlock()
	s2 := &streamSource{buf: b}
	for i := 0; i < 5; i++ {
		if got, w := s2.Uint64(), want.Uint64(); got != w {
			t.Fatalf("draw %d: %d, want %d", i, got, w)
		}
	}
}

// TestStreamHandoverContinuesTheSeed: draws made from a Stream and then
// continued by the engine it is handed to are the draws of one engine
// built on the seed.
func TestStreamHandoverContinuesTheSeed(t *testing.T) {
	want := NewEngine(5).Rand()
	s := NewStream(5)
	e := NewEngine(99)
	got := []int64{s.Int63n(1000), s.Int63()}
	e.SetStream(s)
	got = append(got, e.Rand().Int63(), e.Rand().Int63())
	for i, g := range got {
		var w int64
		if i == 0 {
			w = want.Int63n(1000)
		} else {
			w = want.Int63()
		}
		if g != w {
			t.Fatalf("draw %d: %d, want %d", i, g, w)
		}
	}
}
