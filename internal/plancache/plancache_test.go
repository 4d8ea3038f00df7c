package plancache

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/query"
	"lecopt/internal/workload"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := New[int](64)
	if _, ok := c.GetBytes([]byte("a")); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.GetBytes([]byte("a")); !ok || v != 1 {
		t.Fatalf("GetBytes(a) = %d, %v", v, ok)
	}
	c.Put("a", 10) // refresh
	if v, _ := c.GetBytes([]byte("a")); v != 10 {
		t.Fatalf("refreshed GetBytes(a) = %d", v)
	}
	if c.Stats().Size != 2 {
		t.Fatalf("Size = %d, want 2", c.Stats().Size)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v", got)
	}
}

// sameShardKeys returns n distinct keys that hash to the same shard.
func sameShardKeys(t *testing.T, c *Cache[int], n int) []string {
	t.Helper()
	target := c.shardOfBytes([]byte("k0"))
	keys := []string{"k0"}
	for i := 1; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardOfBytes([]byte(k)) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestLRUEvictionWithinShard(t *testing.T) {
	c := New[int](shardCount) // one entry per shard
	keys := sameShardKeys(t, c, 3)
	c.Put(keys[0], 0)
	c.Put(keys[1], 1) // evicts keys[0]
	if _, ok := c.GetBytes([]byte(keys[0])); ok {
		t.Fatal("oldest entry not evicted")
	}
	if v, ok := c.GetBytes([]byte(keys[1])); !ok || v != 1 {
		t.Fatal("newest entry missing")
	}
}

func TestLRURecencyOnGet(t *testing.T) {
	c := New[int](2 * shardCount) // two entries per shard
	keys := sameShardKeys(t, c, 3)
	c.Put(keys[0], 0)
	c.Put(keys[1], 1)
	c.GetBytes([]byte(keys[0])) // make keys[0] most recent
	c.Put(keys[2], 2)           // should evict keys[1]
	if _, ok := c.GetBytes([]byte(keys[0])); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.GetBytes([]byte(keys[1])); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestTinyCapacityStillCaches(t *testing.T) {
	c := New[int](1)
	c.Put("x", 7)
	if v, ok := c.GetBytes([]byte("x")); !ok || v != 7 {
		t.Fatal("capacity-1 cache dropped its only entry")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%64)
				c.Put(k, i)
				c.GetBytes([]byte(k))
			}
		}(g)
	}
	wg.Wait()
	if c.Stats().Size > 128 {
		t.Fatalf("cache over capacity: %d", c.Stats().Size)
	}
}

// core.Algorithm codes (core imports this package, so tests spell them out).
const (
	algA uint8 = 2
	algC uint8 = 4
	algD uint8 = 5
)

// testKey is AppendKey into a fresh buffer, as a comparable string.
func testKey(cat *catalog.Catalog, blk *query.Block, env envsim.Env,
	selLaws, sizeLaws map[string]dist.Dist, opts optimizer.Options, topC int,
	alg uint8, driftBand, margin float64) string {
	return string(AppendKey(nil, cat, blk, env, selLaws, sizeLaws, opts, topC, alg, driftBand, margin))
}

func testScenario(t *testing.T, seed int64) workload.Scenario {
	t.Helper()
	sc, err := workload.Generate(workload.DefaultSpec(3, workload.Chain), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSignatureDeterministicAndDiscriminating(t *testing.T) {
	sc := testScenario(t, 1)
	mem, err := dist.Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	env := envsim.Env{Mem: mem}
	sig := func(sc workload.Scenario, env envsim.Env, opts optimizer.Options, topC int, alg uint8) string {
		return testKey(sc.Cat, sc.Block, env, nil, nil, opts, topC, alg, 0, 0)
	}
	base := sig(sc, env, optimizer.Options{}, 3, algC)
	if base != sig(sc, env, optimizer.Options{}, 3, algC) {
		t.Fatal("signature not deterministic")
	}
	if base == sig(sc, env, optimizer.Options{}, 3, algA) {
		t.Fatal("algorithm not in signature")
	}
	if base == sig(sc, env, optimizer.Options{SizeBuckets: 9}, 3, algC) {
		t.Fatal("options not in signature")
	}
	if base == sig(sc, env, optimizer.Options{}, 4, algC) {
		t.Fatal("top-c not in signature")
	}
	other := testScenario(t, 2)
	if base == sig(other, env, optimizer.Options{}, 3, algC) {
		t.Fatal("catalog/query not in signature")
	}
	wider, err := dist.Bimodal(700, 2000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if base == sig(sc, envsim.Env{Mem: wider}, optimizer.Options{}, 3, algC) {
		t.Fatal("memory law not in signature")
	}
	chain, err := dist.Sticky([]float64{700, 2000}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if base == sig(sc, envsim.Env{Mem: mem, Chain: chain}, optimizer.Options{}, 3, algC) {
		t.Fatal("markov chain not in signature")
	}
	// Zero-value options and explicitly spelled-out defaults run the same
	// optimization, so they must share a key.
	if base != sig(sc, env, optimizer.Options{}.Normalized(), 3, algC) {
		t.Fatal("explicit default options changed the signature")
	}
}

func TestSignatureLawMapOrderInsensitive(t *testing.T) {
	sc := testScenario(t, 3)
	env := envsim.Env{Mem: dist.Point(1000)}
	lawA := dist.Point(0.5)
	lawB := dist.Point(0.25)
	m1 := map[string]dist.Dist{"t0.k=t1.k": lawA, "t1.k=t2.k": lawB}
	m2 := map[string]dist.Dist{"t1.k=t2.k": lawB, "t0.k=t1.k": lawA}
	s1 := testKey(sc.Cat, sc.Block, env, m1, nil, optimizer.Options{}, 3, algD, 0, 0)
	s2 := testKey(sc.Cat, sc.Block, env, m2, nil, optimizer.Options{}, 3, algD, 0, 0)
	if s1 != s2 {
		t.Fatal("signature depends on map insertion order")
	}
	s3 := testKey(sc.Cat, sc.Block, env, nil, nil, optimizer.Options{}, 3, algD, 0, 0)
	if s1 == s3 {
		t.Fatal("selectivity laws not in signature")
	}
}

func TestStatsEvictionsAndShards(t *testing.T) {
	c := New[int](16) // one slot per shard
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("overfull cache recorded no evictions")
	}
	if len(st.ShardSizes) == 0 {
		t.Fatal("no shard occupancy reported")
	}
	total := 0
	for _, n := range st.ShardSizes {
		if n > 1 {
			t.Fatalf("shard over its capacity: %v", st.ShardSizes)
		}
		total += n
	}
	if total != st.Size {
		t.Fatalf("shard occupancy %d != size %d", total, st.Size)
	}
	if uint64(200-st.Size) != st.Evictions {
		t.Fatalf("evictions %d inconsistent with 200 puts and size %d", st.Evictions, st.Size)
	}
}

func TestSignatureDriftBand(t *testing.T) {
	sc := testScenario(t, 9)
	env := envsim.Env{Mem: dist.Point(1000)}
	exact := testKey(sc.Cat, sc.Block, env, nil, nil, optimizer.Options{}, 3, algC, 0, 0)
	banded := testKey(sc.Cat, sc.Block, env, nil, nil, optimizer.Options{}, 3, algC, 2, 0)
	if exact == banded {
		t.Fatal("band base must be part of the key")
	}
	// Size hints change which plan is optimal, so they must split keys.
	hinted := testKey(sc.Cat, sc.Block, env, nil, nil,
		optimizer.Options{SizeHints: map[string]float64{"t0+t1": 42}}, 3, algC, 0, 0)
	if hinted == exact {
		t.Fatal("size hints not in signature")
	}
	h2 := testKey(sc.Cat, sc.Block, env, nil, nil,
		optimizer.Options{SizeHints: map[string]float64{"t0+t1": 42}}, 3, algC, 0, 0)
	if hinted != h2 {
		t.Fatal("hinted signature not deterministic")
	}
}

// TestKeyFraming: the key is binary, so only its length prefixes and
// counts keep adjacent fields apart. Each pair below moves bytes across a
// field boundary or a value between fields; the keys must differ, and no
// key may be a proper prefix of another (every field is self-delimiting,
// so the whole key is). AppendKey must also leave dst's bytes as they are.
func TestKeyFraming(t *testing.T) {
	sc := testScenario(t, 5)
	point := envsim.Env{Mem: dist.Point(1000)}
	hinted := func(hints map[string]float64) string {
		return testKey(sc.Cat, sc.Block, point, nil, nil, optimizer.Options{SizeHints: hints}, 0, algC, 0, 0)
	}
	// Without length prefixes both maps are the bytes
	// a b 0 0 0 0 0 0 0 b c <7.0>: the 'b' is the low byte of the first
	// map's first value and the high byte of the second map's.
	lowB, highB := math.Float64frombits('b'), math.Float64frombits('b'<<56)
	if hinted(map[string]float64{"a": lowB, "bc": 7}) == hinted(map[string]float64{"ab": highB, "c": 7}) {
		t.Fatal(`hint keys "a"/"bc" and "ab"/"c" collide`)
	}
	if hinted(map[string]float64{"a": 1, "b": 2}) == hinted(map[string]float64{"a": 2, "b": 1}) {
		t.Fatal("hint values are not bound to their keys")
	}

	law := map[string]dist.Dist{"t0": dist.Point(0.5)}
	asSel := testKey(sc.Cat, sc.Block, point, law, nil, optimizer.Options{}, 0, algD, 0, 0)
	asSize := testKey(sc.Cat, sc.Block, point, nil, law, optimizer.Options{}, 0, algD, 0, 0)
	if asSel == asSize {
		t.Fatal("a law moved from SelLaws to SizeLaws keeps its key")
	}

	// A 1-bucket law followed by a 2-state chain and a 4-bucket law with
	// no chain are both eight floats; the counts tell them apart.
	chain, err := dist.Sticky([]float64{1000, 2000}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	long, err := dist.New([]float64{1000, 2000, 3000, 4000}, []float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	withChain := testKey(sc.Cat, sc.Block, envsim.Env{Mem: dist.Point(1000), Chain: chain}, nil, nil, optimizer.Options{}, 0, algC, 0, 0)
	longLaw := testKey(sc.Cat, sc.Block, envsim.Env{Mem: long}, nil, nil, optimizer.Options{}, 0, algC, 0, 0)
	if withChain == longLaw || withChain == testKey(sc.Cat, sc.Block, point, nil, nil, optimizer.Options{}, 0, algC, 0, 0) {
		t.Fatal("a chain is not delimited from the memory law")
	}
	keys := []string{
		hinted(map[string]float64{"a": lowB, "bc": 7}), hinted(map[string]float64{"ab": highB, "c": 7}),
		hinted(map[string]float64{"a": 1, "b": 2}), hinted(map[string]float64{"a": 2, "b": 1}),
		hinted(nil), asSel, asSize, withChain, longLaw,
	}
	for i, a := range keys {
		for _, b := range keys[i+1:] {
			if len(a) != len(b) && (strings.HasPrefix(a, b) || strings.HasPrefix(b, a)) {
				t.Fatalf("key of %d bytes is a prefix of one of %d bytes", min(len(a), len(b)), max(len(a), len(b)))
			}
		}
	}
	dst := []byte("prefix")
	if got := AppendKey(dst, sc.Cat, sc.Block, point, nil, nil, optimizer.Options{}, 0, algC, 0, 0); string(got) != "prefix"+hinted(nil) {
		t.Fatal("AppendKey did not append the key to dst")
	}
}

// TestCountersReconcile: the hit/miss/eviction counters live in the shards,
// so Stats must still add up exactly — every counted lookup lands in
// exactly one of Hits or Misses, ProbeBytes lookups in neither — and evictions
// must match what the same Put sequence does on one goroutine.
func TestCountersReconcile(t *testing.T) {
	const goroutines, perG, probes = 8, 3000, 1000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i%300)) }
	c := New[int](4096)
	for i := 0; i < 200; i++ { // 200 of the 300 keys are present
		c.Put(string(key(i)), i)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.GetBytes(key(g*perG + i))
			}
			for i := 0; i < probes/goroutines; i++ {
				c.ProbeBytes(key(i))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*perG {
		t.Fatalf("hits %d + misses %d != %d counted lookups", st.Hits, st.Misses, goroutines*perG)
	}
	// The lookups cycle through keys 0..299 a whole number of times, so
	// exactly two thirds of them hit.
	if want := uint64(goroutines * perG * 2 / 3); st.Hits != want {
		t.Fatalf("hits = %d, want %d", st.Hits, want)
	}
	if st.Evictions != 0 {
		t.Fatalf("lookups evicted %d entries", st.Evictions)
	}

	// Evictions: concurrent writers on disjoint key ranges against a
	// sequential replay of the same puts. Which entries survive depends on
	// the interleaving; how many were evicted per shard does not (a shard
	// evicts once per new key beyond its capacity).
	put := func(c *Cache[int], g int) {
		for i := 0; i < perG; i++ {
			c.Put(fmt.Sprintf("w%d-%d", g, i), i)
		}
	}
	// Both caches must shard alike for the replay to mean anything.
	conc, seq := New[int](64), New[int](64)
	seq.seed = conc.seed
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			put(conc, g)
		}(g)
		put(seq, g)
	}
	wg.Wait()
	got, want := conc.Stats(), seq.Stats()
	if got.Evictions != want.Evictions || got.Size != want.Size {
		t.Fatalf("concurrent puts: %d evictions, size %d; sequential replay: %d evictions, size %d",
			got.Evictions, got.Size, want.Evictions, want.Size)
	}
	if got.Evictions != uint64(goroutines*perG-got.Size) {
		t.Fatalf("evictions %d != %d puts - %d resident", got.Evictions, goroutines*perG, got.Size)
	}
}
