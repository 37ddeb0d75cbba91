package rng

import "testing"

// TestSeedStreamDeterministic: the same (seed, id, step) triple always
// yields the same stream, and SeedStream on a dirty generator matches a
// freshly constructed one — the in-place reseed must leave no residue.
func TestSeedStreamDeterministic(t *testing.T) {
	a := NewXoshiroStream(42, 7, 1000)
	b := NewXoshiro(999) // dirty state to overwrite
	for i := 0; i < 10; i++ {
		b.Uint64()
	}
	b.SeedStream(42, 7, 1000)
	for i := 0; i < 100; i++ {
		if got, want := b.Uint64(), a.Uint64(); got != want {
			t.Fatalf("draw %d: reseeded stream %#x != fresh stream %#x", i, got, want)
		}
	}
}

// TestSeedStreamIndependence: neighbouring triples must not collide or
// produce correlated prefixes — each coordinate perturbation changes the
// stream.
func TestSeedStreamIndependence(t *testing.T) {
	base := NewXoshiroStream(42, 7, 1000)
	first := base.Uint64()
	variants := []struct {
		name           string
		seed, id, step uint64
	}{
		{"seed+1", 43, 7, 1000},
		{"id+1", 42, 8, 1000},
		{"step+1", 42, 7, 1001},
		{"swapped id/step", 42, 1000, 7},
	}
	for _, v := range variants {
		x := NewXoshiroStream(v.seed, v.id, v.step)
		if x.Uint64() == first {
			t.Errorf("%s: first draw collides with base stream", v.name)
		}
	}
}

// TestSeedStreamUniformity sanity-checks that stream-seeded generators
// still produce roughly uniform bits (a gross mixing failure — e.g. all
// streams starting near zero — would show up here).
func TestSeedStreamUniformity(t *testing.T) {
	var ones int
	const streams, draws = 256, 4
	for id := uint64(0); id < streams; id++ {
		x := NewXoshiroStream(1, id, id*31)
		for i := 0; i < draws; i++ {
			v := x.Uint64()
			for ; v != 0; v &= v - 1 {
				ones++
			}
		}
	}
	total := streams * draws * 64
	frac := float64(ones) / float64(total)
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("bit density %.4f outside [0.48, 0.52]", frac)
	}
}

// seedStreamRef is SeedStream's reference derivation, written out in full:
// fold seed, id and step in turn through Mix64 and expand the result as
// NewXoshiro does.
func seedStreamRef(seed, id, step uint64) *Xoshiro {
	h := Mix64(seed)
	h = Mix64(h ^ Mix64(id))
	h = Mix64(h ^ Mix64(step))
	return NewXoshiro(h)
}

// TestSeedStreamPinned pins the first draws of one stream, so a change to
// the derivation fails even if every form of it changes together.
func TestSeedStreamPinned(t *testing.T) {
	x := NewXoshiroStream(42, 7, 1000)
	for i, want := range []uint64{0x1c515e7b28b8a66e, 0xc29c0a278cf7bc4b} {
		if got := x.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestKeyedStreamMatchesSeedStream: over many random triples, the keyed
// seed yields the same four state words as SeedStream and as the
// reference derivation, and the first-uniform peek equals the stream's
// first Float64.
func TestKeyedStreamMatchesSeedStream(t *testing.T) {
	src := NewXoshiro(2024)
	for i := 0; i < 20000; i++ {
		seed, id, step := src.Uint64(), src.Uint64(), src.Uint64()
		if i%4 == 0 {
			// Small ids and steps, as the simulation drivers use them.
			id, step = id%5000, step%100000
		}
		key := StreamKey(StreamIDKey(seed, id), StreamStepKey(step))
		var keyed, streamed Xoshiro
		keyed.SeedKey(key)
		streamed.SeedStream(seed, id, step)
		ref := seedStreamRef(seed, id, step)
		if keyed != *ref || streamed != *ref {
			t.Fatalf("(%#x, %d, %d): keyed %+v, SeedStream %+v, reference %+v",
				seed, id, step, keyed, streamed, *ref)
		}
		//lint:ignore float-eq the peek must reproduce the stream's first uniform bit for bit
		if got, want := PeekFloat64(key), ref.Float64(); got != want {
			t.Fatalf("(%#x, %d, %d): PeekFloat64 %v, first Float64 %v", seed, id, step, got, want)
		}
	}
}

// BenchmarkSeedStream prices a full per-(id, step) reseed plus the first
// uniform; BenchmarkPeekFloat64 prices the same uniform through the keyed
// peek with the id half folded in advance.
func BenchmarkSeedStream(b *testing.B) {
	var x Xoshiro
	var sink float64
	for i := 0; i < b.N; i++ {
		x.SeedStream(1, uint64(i&4095), uint64(i>>12))
		sink += x.Float64()
	}
	benchSink = sink
}

func BenchmarkPeekFloat64(b *testing.B) {
	idKeys := make([]uint64, 4096)
	for id := range idKeys {
		idKeys[id] = StreamIDKey(1, uint64(id))
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += PeekFloat64(StreamKey(idKeys[i&4095], StreamStepKey(uint64(i>>12))))
	}
	benchSink = sink
}

var benchSink float64
