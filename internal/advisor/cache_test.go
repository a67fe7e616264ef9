package advisor

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitInOnce blocks until n goroutines are inside a sync.Once's slow path —
// the one running compute plus the ones blocked behind it — so a test can
// release compute knowing exactly who holds the entry.
func waitInOnce(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if strings.Count(stacks, "sync.(*Once).doSlow") >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d goroutines reached the once:\n%s", n, stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOnceCacheConcurrentGetsComputeOnce(t *testing.T) {
	const n = 16
	c := newOnceCache[string, int](0)
	release := make(chan struct{})
	var calls atomic.Int64
	compute := func() (int, error) {
		calls.Add(1)
		<-release
		return 42, nil
	}
	var wg sync.WaitGroup
	vals := make([]int, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			vals[i], hits[i], err = c.Get("k", compute)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Every caller has counted its request while compute is still
	// pending, so none of them can find the value resolved first.
	for c.requests.Load() < n {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times for %d identical gets, want 1", got, n)
	}
	misses := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Errorf("caller %d got %d", i, vals[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 || c.hits.Load() != n-1 || c.requests.Load() != n {
		t.Errorf("misses=%d hits=%d requests=%d, want 1/%d/%d", misses, c.hits.Load(), c.requests.Load(), n-1, n)
	}
}

func TestOnceCacheFailedWinnerReachesLosersAndRecomputes(t *testing.T) {
	const losers = 4
	c := newOnceCache[string, int](0)
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, losers+1)
	hits := make([]bool, losers+1)
	get := func(i int) {
		defer wg.Done()
		_, hits[i], errs[i] = c.Get("k", func() (int, error) {
			<-release
			return 0, boom
		})
	}
	wg.Add(1)
	go get(0)
	waitInOnce(t, 1)
	for i := 1; i <= losers; i++ {
		wg.Add(1)
		go get(i)
	}
	waitInOnce(t, losers+1)
	close(release)
	wg.Wait()

	for i := range errs {
		if !errors.Is(errs[i], boom) || hits[i] {
			t.Errorf("caller %d: err=%v hit=%v, want the winner's error and no hit", i, errs[i], hits[i])
		}
	}
	if c.hits.Load() != 0 || c.Len() != 0 {
		t.Errorf("after failure: hits=%d len=%d, want 0/0", c.hits.Load(), c.Len())
	}
	v, hit, err := c.Get("k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Errorf("get after failure = %d,%v,%v; want a fresh compute", v, hit, err)
	}
}

func TestOnceCachePutAnswersAsHitWithoutCountingOne(t *testing.T) {
	c := newOnceCache[string, int](0)
	c.Put("k", 9)
	if c.hits.Load() != 0 || c.requests.Load() != 0 || c.Len() != 1 {
		t.Fatalf("Put counted: hits=%d requests=%d len=%d", c.hits.Load(), c.requests.Load(), c.Len())
	}
	v, hit, err := c.Get("k", func() (int, error) {
		t.Error("Get recomputed a Put value")
		return 0, nil
	})
	if err != nil || !hit || v != 9 {
		t.Errorf("get after Put = %d,%v,%v", v, hit, err)
	}
	if c.hits.Load() != 1 || c.requests.Load() != 1 {
		t.Errorf("hits=%d requests=%d, want 1/1", c.hits.Load(), c.requests.Load())
	}
}

func TestOnceCacheEvictedWhileResolvingCompletes(t *testing.T) {
	c := newOnceCache[string, int](1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]int, 2)
	errs := make([]error, 2)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = c.Get("slow", func() (int, error) {
				<-release
				return 1, nil
			})
		}(i)
		waitInOnce(t, i+1)
	}
	// A second key evicts the entry both callers hold.
	if _, _, err := c.Get("fast", func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()
	for i := range vals {
		if errs[i] != nil || vals[i] != 1 {
			t.Errorf("holder %d of the evicted entry got %d,%v", i, vals[i], errs[i])
		}
	}
	// Evicted means no longer findable: the next get recomputes.
	if _, hit, _ := c.Get("slow", func() (int, error) { return 1, nil }); hit {
		t.Error("evicted entry still answered")
	}
}

// A failed entry that was evicted and re-created meanwhile must not drop
// its successor: the drop applies only to the live entry.
func TestOnceCacheFailedEvictedEntryKeepsSuccessor(t *testing.T) {
	c := newOnceCache[string, int](1)
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		_, _, err := c.Get("k", func() (int, error) {
			<-release
			return 0, errors.New("late failure")
		})
		done <- err
	}()
	waitInOnce(t, 1)
	c.Get("other", func() (int, error) { return 0, nil }) // evicts the failing entry
	if _, _, err := c.Get("k", func() (int, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err == nil {
		t.Fatal("failing compute reported success")
	}
	v, hit, err := c.Get("k", func() (int, error) { return -1, nil })
	if err != nil || !hit || v != 5 {
		t.Errorf("successor entry = %d,%v,%v; the stale failure dropped it", v, hit, err)
	}
}
