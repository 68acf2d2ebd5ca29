package par

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestForEachIndexedZeroItems(t *testing.T) {
	called := false
	err := ForEachIndexed(context.Background(), 0, 4, "test", func(ctx context.Context, i int) error {
		called = true
		return nil
	})
	if err != nil {
		t.Fatalf("n=0 returned %v", err)
	}
	if called {
		t.Fatal("work called with no items")
	}
}

func TestForEachIndexedMoreWorkersThanItems(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	counts := make([]int, n)
	err := ForEachIndexed(context.Background(), n, 16, "test", func(ctx context.Context, i int) error {
		mu.Lock()
		counts[i]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

func TestForEachIndexedParentCancelMidFeed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	err := ForEachIndexed(ctx, 100, 1, "test", func(ctx context.Context, i int) error {
		ran++
		if i == 2 {
			cancel() // parent cancellation arrives while the feed loop runs
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran >= 100 {
		t.Fatal("cancellation did not stop dispatch")
	}
}

// failBoth runs two items on two workers that each fail, with a barrier
// holding both until each has its job, so both errors are in flight
// concurrently.
func failBoth(errA, errB error) error {
	var barrier sync.WaitGroup
	barrier.Add(2)
	return ForEachIndexed(context.Background(), 2, 2, "test", func(ctx context.Context, i int) error {
		barrier.Done()
		barrier.Wait()
		if i == 0 {
			return errA
		}
		return errB
	})
}

func TestForEachIndexedLowestErrorWins(t *testing.T) {
	errA := errors.New("index 0 failed")
	errB := errors.New("index 1 failed")
	if err := failBoth(errA, errB); !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the index-0 error", err)
	}
}

// TestForEachIndexedJoinsAllErrors: a multi-worker failure reports every
// worker's error — errors.Is finds each one, and the joined message
// lists the lowest index first.
func TestForEachIndexedJoinsAllErrors(t *testing.T) {
	errA := errors.New("index 0 failed")
	errB := errors.New("index 1 failed")
	err := failBoth(errA, errB)
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("err = %v, want both worker errors joined", err)
	}
	msg := err.Error()
	if strings.Index(msg, "index 0") > strings.Index(msg, "index 1") {
		t.Errorf("joined message %q does not list the lowest index first", msg)
	}
}
