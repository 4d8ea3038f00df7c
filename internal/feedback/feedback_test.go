package feedback

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestSetKeyCanonical(t *testing.T) {
	if SetKey("b", "a", "c") != "a+b+c" {
		t.Fatalf("got %q", SetKey("b", "a", "c"))
	}
	if SetKey("t0") != "t0" {
		t.Fatalf("single-table key: %q", SetKey("t0"))
	}
	if SetKey("a", "c") == SetKey("a", "b") {
		t.Fatal("different sets must not collide")
	}
}

func TestObserveAndHints(t *testing.T) {
	s := NewStore(0.5)
	if got := s.Hints("q"); got != nil {
		t.Fatalf("empty store returned hints: %v", got)
	}
	s.Observe("q", map[string]float64{"a+b": 100})
	if got := s.Hints("q")["a+b"]; got != 100 {
		t.Fatalf("first observation is the value: got %v", got)
	}
	// EWMA: 0.5*200 + 0.5*100 = 150.
	s.Observe("q", map[string]float64{"a+b": 200})
	if got := s.Hints("q")["a+b"]; got != 150 {
		t.Fatalf("ewma: got %v want 150", got)
	}
	// Repeated identical observations converge and stay put.
	for i := 0; i < 20; i++ {
		s.Observe("q", map[string]float64{"a+b": 150})
	}
	if got := s.Hints("q")["a+b"]; got != 150 {
		t.Fatalf("converged hint moved: %v", got)
	}
	if s.Queries() != 1 {
		t.Fatalf("queries: %d", s.Queries())
	}
	if s.Observations() == 0 {
		t.Fatal("observations not counted")
	}
}

func TestObserveIgnoresGarbage(t *testing.T) {
	s := NewStore(0)
	s.Observe("q", map[string]float64{"a": -1, "b": 0})
	if s.Hints("q") != nil {
		t.Fatal("garbage observations must be dropped")
	}
}

// TestObserveNothingFoldedRegistersNothing: an observation whose every
// size is dropped leaves no query behind, so Queries and Observations
// agree that nothing was observed.
func TestObserveNothingFoldedRegistersNothing(t *testing.T) {
	s := NewStore(0)
	s.Observe("q", map[string]float64{"t": math.NaN(), "u": math.Inf(1), "v": -3})
	if q, n := s.Queries(), s.Observations(); q != 0 || n != 0 {
		t.Fatalf("after an observation that folds nothing: %d queries, %d observations; want 0, 0", q, n)
	}
	s.Observe("q", map[string]float64{"t": 4})
	if q, n := s.Queries(), s.Observations(); q != 1 || n != 1 {
		t.Fatalf("after one folded size: %d queries, %d observations; want 1, 1", q, n)
	}
}

func TestHintsRounded(t *testing.T) {
	s := NewStore(1)
	s.Observe("q", map[string]float64{"a+b": 1234.5})
	if got := s.Hints("q")["a+b"]; got != 1200 {
		t.Fatalf("rounding: got %v want 1200", got)
	}
}

func TestRoundSig(t *testing.T) {
	cases := map[float64]float64{1234: 1200, 96: 96, 0.0372: 0.037, 8: 8, 150: 150}
	for in, want := range cases {
		if got := roundSig(in); got != want {
			t.Errorf("roundSig(%v) = %v, want %v", in, got, want)
		}
	}
}

// TestRoundSigFloatEdges: a positive finite size stays positive and finite.
// Near the ends of the float range it passes through unchanged; inside it
// it rounds as anywhere else, up to the ulps math.Pow's scale costs.
func TestRoundSigFloatEdges(t *testing.T) {
	const smallestNormal = 0x1p-1022
	for _, tc := range []struct {
		in, want float64
		exact    bool
	}{
		{math.MaxFloat64, math.MaxFloat64, true},
		{smallestNormal, smallestNormal, true},
		{1e-308, 1e-308, true},
		{1e-310, 1e-310, true},
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, true},
		{1.234e300, 1.2e300, false},
		{1e300, 1e300, false},
		{1.234e-300, 1.2e-300, false},
		{1e-300, 1e-300, false},
	} {
		got := roundSig(tc.in)
		ok := got == tc.want
		if !tc.exact {
			ok = math.Abs(got-tc.want) <= 1e-14*tc.want
		}
		if !ok || !(got > 0) || math.IsInf(got, 0) {
			t.Errorf("roundSig(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// sameMap reports whether a and b are one map, not two equal ones.
func sameMap(a, b map[string]float64) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestConvergedObserveRepublishesNothing: once a query's rounded hints stop
// moving, Observe only folds the averages — no allocation, and readers keep
// getting the snapshot they already had.
func TestConvergedObserveRepublishesNothing(t *testing.T) {
	s := NewStore(0)
	sizes := map[string]float64{"a+b": 150, "a": 40}
	for range 20 {
		s.Observe("q", sizes)
	}
	snap := s.HintsBytes([]byte("q"))
	if snap["a+b"] != 150 || snap["a"] != 40 {
		t.Fatalf("converged hints: %v", snap)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Observe("q", sizes) }); allocs != 0 {
		t.Fatalf("converged Observe allocates: %.2f allocs/op, want 0", allocs)
	}
	key := []byte("q")
	if allocs := testing.AllocsPerRun(100, func() { s.HintsBytes(key) }); allocs != 0 {
		t.Fatalf("HintsBytes allocates: %.2f allocs/op, want 0", allocs)
	}
	if !sameMap(s.HintsBytes(key), snap) {
		t.Fatal("a converged query republished its hints")
	}
	// 152 rounds to 150: the average moves, the published value does not.
	s.Observe("q", map[string]float64{"a+b": 154})
	if !sameMap(s.HintsBytes(key), snap) {
		t.Fatal("an observation that moved no rounded value republished the hints")
	}
}

// TestHintsIsACopy: the map Hints returns is the caller's; writing into it
// changes neither the store's snapshot nor a later Hints.
func TestHintsIsACopy(t *testing.T) {
	s := NewStore(0)
	s.Observe("q", map[string]float64{"a+b": 100})
	h := s.Hints("q")
	h["a+b"] = 1
	h["c"] = 2
	for _, got := range []map[string]float64{s.Hints("q"), s.HintsBytes([]byte("q"))} {
		if len(got) != 1 || got["a+b"] != 100 {
			t.Fatalf("writing into Hints' map changed the store: %v", got)
		}
	}
}

// TestObservePublishesOnChange: a new set key or a moved rounded value
// publishes a new snapshot, and the one readers already hold is unchanged.
func TestObservePublishesOnChange(t *testing.T) {
	s := NewStore(0.5)
	key := []byte("q")
	s.Observe("q", map[string]float64{"a+b": 100})
	first := s.HintsBytes(key)
	s.Observe("q", map[string]float64{"c": 7})
	second := s.HintsBytes(key)
	if sameMap(first, second) || len(second) != 2 || second["c"] != 7 || second["a+b"] != 100 {
		t.Fatalf("a new set key: snapshot %v (republished %v)", second, !sameMap(first, second))
	}
	s.Observe("q", map[string]float64{"a+b": 300}) // ewma 200
	third := s.HintsBytes(key)
	if sameMap(second, third) || third["a+b"] != 200 || third["c"] != 7 {
		t.Fatalf("a moved value: snapshot %v (republished %v)", third, !sameMap(second, third))
	}
	if len(first) != 1 || first["a+b"] != 100 || len(second) != 2 || second["a+b"] != 100 {
		t.Fatalf("a published snapshot was modified: %v, %v", first, second)
	}
}

func TestHintsPerQueryIsolation(t *testing.T) {
	s := NewStore(0)
	s.Observe("q1", map[string]float64{"a+b": 10})
	s.Observe("q2", map[string]float64{"a+b": 99})
	if s.Hints("q1")["a+b"] == s.Hints("q2")["a+b"] {
		t.Fatal("queries must not share observations")
	}
}

func TestConcurrentObserve(t *testing.T) {
	s := NewStore(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q := fmt.Sprintf("q%d", g%4)
				s.Observe(q, map[string]float64{"a+b": 50})
				s.Hints(q)
			}
		}(g)
	}
	wg.Wait()
	if s.Queries() != 4 {
		t.Fatalf("queries: %d", s.Queries())
	}
}
