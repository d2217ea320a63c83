package simnet

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestIsTransient(t *testing.T) {
	for _, err := range []error{
		ErrTimeout, ErrPartitioned, ErrEndpointDown,
		fmt.Errorf("wrapped: %w", ErrTimeout),
	} {
		if !IsTransient(err) {
			t.Errorf("IsTransient(%v) = false", err)
		}
	}
	for _, err := range []error{nil, errors.New("disk on fire"), ErrUnknownEndpoint} {
		if IsTransient(err) {
			t.Errorf("IsTransient(%v) = true", err)
		}
	}
}

// faultPair wires two endpoints; the destination counts deliveries.
func faultPair(t *testing.T) (*Network, *atomic.Int64) {
	t.Helper()
	n := New(ZeroTopology())
	var delivered atomic.Int64
	n.Register("src", DC1, func(string, any) (any, error) { return nil, nil })
	n.Register("dst", DC1, func(_ string, msg any) (any, error) {
		delivered.Add(1)
		return "ok", nil
	})
	return n, &delivered
}

func TestLinkDropSurfacesAsTimeout(t *testing.T) {
	n, delivered := faultPair(t)
	n.ApplyFaultPlan(FaultPlan{
		Seed:  7,
		Links: map[[2]string]LinkFaults{{"src", "dst"}: {Drop: 1.0}},
	})
	_, err := n.Call("src", "dst", "hello")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout for dropped request, got %v", err)
	}
	if delivered.Load() != 0 {
		t.Fatalf("dropped request must not reach the handler")
	}
	// Other links stay clean.
	n.Register("other", DC1, func(string, any) (any, error) { return nil, nil })
	if _, err := n.Call("other", "dst", "x"); err != nil {
		t.Fatalf("clean link errored: %v", err)
	}
}

func TestReplyDropDeliversButTimesOut(t *testing.T) {
	n, delivered := faultPair(t)
	// Drop only the reverse (reply) leg: the handler runs, the caller
	// still sees a timeout — the in-doubt ambiguity 2PC recovery handles.
	n.ApplyFaultPlan(FaultPlan{
		Seed:  7,
		Links: map[[2]string]LinkFaults{{"dst", "src"}: {Drop: 1.0}},
	})
	_, err := n.Call("src", "dst", "hello")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout for dropped reply, got %v", err)
	}
	if delivered.Load() != 1 {
		t.Fatalf("request with dropped reply must still be processed, delivered=%d", delivered.Load())
	}
}

func TestDuplicationInvokesHandlerTwice(t *testing.T) {
	n, delivered := faultPair(t)
	n.SetLinkFaults("src", "dst", LinkFaults{Dup: 1.0})
	if _, err := n.Call("src", "dst", "hello"); err != nil {
		t.Fatalf("dup call errored: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for delivered.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != 2 {
		t.Fatalf("want 2 deliveries for a duplicated message, got %d", got)
	}
}

func TestCallTimeoutBoundsHungHandler(t *testing.T) {
	n := New(ZeroTopology())
	n.Register("src", DC1, func(string, any) (any, error) { return nil, nil })
	block := make(chan struct{})
	n.Register("slow", DC1, func(string, any) (any, error) {
		<-block
		return nil, nil
	})
	defer close(block)
	start := time.Now()
	_, err := n.CallTimeout("src", "slow", "x", 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout from deadline, got %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline not enforced: took %v", el)
	}
}

func TestCrashAfterSendIsOneShot(t *testing.T) {
	n, delivered := faultPair(t)
	n.CrashAfterSend("src", func(_ string, msg any) bool {
		s, ok := msg.(string)
		return ok && s == "commit"
	})
	// Non-matching traffic passes untouched.
	if _, err := n.Call("src", "dst", "prepare"); err != nil {
		t.Fatalf("non-matching message errored: %v", err)
	}
	// The matching message is delivered, but the sender dies with it.
	_, err := n.Call("src", "dst", "commit")
	if !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("want ErrEndpointDown after crash-on-send, got %v", err)
	}
	if delivered.Load() != 2 {
		t.Fatalf("crash-after-send must still deliver the message, delivered=%d", delivered.Load())
	}
	if !n.IsDown("src") {
		t.Fatalf("sender should be down after the hook fired")
	}
	// One-shot: reviving the sender, further commits flow normally.
	n.SetDown("src", false)
	if _, err := n.Call("src", "dst", "commit"); err != nil {
		t.Fatalf("hook must be one-shot, got %v", err)
	}
}

func TestFaultSeedIsDeterministic(t *testing.T) {
	run := func() []bool {
		n, _ := faultPair(t)
		n.ApplyFaultPlan(FaultPlan{Seed: 42, Default: LinkFaults{Drop: 0.5}})
		var outcomes []bool
		for i := 0; i < 64; i++ {
			_, err := n.Call("src", "dst", i)
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
}

func TestDefaultCallTimeoutFromPlan(t *testing.T) {
	n := New(ZeroTopology())
	n.Register("src", DC1, func(string, any) (any, error) { return nil, nil })
	block := make(chan struct{})
	n.Register("slow", DC1, func(string, any) (any, error) {
		<-block
		return nil, nil
	})
	defer close(block)
	n.ApplyFaultPlan(FaultPlan{CallTimeout: 25 * time.Millisecond})
	if _, err := n.Call("src", "slow", "x"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("plan CallTimeout must bound plain Calls, got %v", err)
	}
	n.ClearFaults()
	if d := n.defaultCallTimeout.Load(); d != 0 {
		t.Fatalf("ClearFaults must reset the default timeout, got %d", d)
	}
}
