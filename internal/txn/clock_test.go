package txn

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/hlc"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// waitSleepers polls until n goroutines are parked in the fake clock.
func waitSleepers(t *testing.T, fc *obs.FakeClock, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for fc.Sleepers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("sleepers = %d, want %d", fc.Sleepers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCallRetryBackoffDeterministic: retry backoff sleeps run on the
// injected clock, so a test drives the whole retry schedule (2ms then
// 4ms) explicitly — no wall-clock time passes while the retries wait.
func TestCallRetryBackoffDeterministic(t *testing.T) {
	net := simnet.New(simnet.ZeroTopology())
	net.Register("cn", simnet.DC1, nil)
	net.Register("dn", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	net.SetDown("dn", true) // every call fails with the retryable ErrEndpointDown

	c := NewCoordinator(net, "cn", NewHLCOracle(hlc.NewClock(nil)))
	fc := obs.NewFakeClock(time.Unix(0, 0))
	c.SetClock(fc)

	done := make(chan error, 1)
	go func() {
		_, err := c.callRetryUntil("dn", "ping", time.Time{})
		done <- err
	}()

	// Attempt 1 fails immediately; the retry loop parks on the fake
	// clock for the first backoff.
	waitSleepers(t, fc, 1)
	select {
	case err := <-done:
		t.Fatalf("callRetry returned during first backoff: %v", err)
	default:
	}
	fc.Advance(defaultRetry.Base) // releases backoff #1

	// Attempt 2 fails; second backoff is Base*2.
	waitSleepers(t, fc, 1)
	fc.Advance(2 * defaultRetry.Base)

	select {
	case err := <-done:
		if !errors.Is(err, simnet.ErrEndpointDown) {
			t.Fatalf("err = %v, want ErrEndpointDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("callRetry did not finish after final backoff was released")
	}
}

// A statement deadline taken from the wall clock keeps its monotonic
// reading through SetDeadline, so a wall-clock step neither expires nor
// extends it; one from a fake clock, which has none, keeps its wall time.
func TestDeadlineKeepsMonotonicReading(t *testing.T) {
	var tx Tx
	if got := tx.Deadline(); !got.IsZero() {
		t.Fatalf("new Tx has deadline %v", got)
	}
	d := time.Now().Add(time.Minute)
	tx.SetDeadline(d)
	if got := tx.Deadline(); !got.Equal(d) || !strings.Contains(got.String(), " m=") {
		t.Fatalf("Deadline() = %v, want %v with its monotonic reading", got, d)
	}
	fake := time.Unix(1_000_000, 0)
	tx.SetDeadline(fake)
	if got := tx.Deadline(); !got.Equal(fake) {
		t.Fatalf("Deadline() = %v, want %v", got, fake)
	}
	tx.SetDeadline(time.Time{})
	if got := tx.Deadline(); !got.IsZero() {
		t.Fatalf("cleared deadline reads %v", got)
	}
}
