package topk

import (
	"math"
	"sync"
	"testing"
)

func TestThresholdIsAMaxRegister(t *testing.T) {
	var th Threshold
	if th.Load() != 0 {
		t.Fatalf("zero value loads %v, want 0", th.Load())
	}
	for _, step := range []struct{ raise, want float64 }{
		{2.5, 2.5}, {1, 2.5}, {2.5, 2.5}, {math.NaN(), 2.5}, {math.Nextafter(2.5, 3), math.Nextafter(2.5, 3)}, {0, math.Nextafter(2.5, 3)},
	} {
		th.Raise(step.raise)
		if got := th.Load(); got != step.want {
			t.Fatalf("after Raise(%v): %v, want %v", step.raise, got, step.want)
		}
	}
}

// TestThresholdConcurrentRaise: whatever the interleaving, the register
// ends at the largest value raised and never reads lower than a value a
// goroutine has already seen.
func TestThresholdConcurrentRaise(t *testing.T) {
	var th Threshold
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := 0.0
			for i := 1; i <= 2000; i++ {
				th.Raise(float64(i*4 + g))
				now := th.Load()
				if now < seen || now < float64(i*4+g) {
					t.Errorf("goroutine %d: loaded %v after seeing %v and raising %v", g, now, seen, i*4+g)
					return
				}
				seen = now
			}
		}(g)
	}
	wg.Wait()
	if got := th.Load(); got != 2000*4+3 {
		t.Fatalf("final value %v, want %v", got, 2000*4+3)
	}
}
