package txn

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/simnet"
)

// defaultRetry is tuned for the simulated fabric: three tries spaced
// 2ms/4ms rides out a dropped message without adding meaningful latency
// to a genuinely failed call. Jitter is off so FakeClock-driven chaos
// tests keep their exact backoff schedule.
var defaultRetry = retry.Policy{
	Attempts: 3,
	Base:     2 * time.Millisecond,
	Cap:      50 * time.Millisecond,
	Jitter:   -1,
}

// inDoubt classifies a failed commit/commit-point RPC whose outcome is
// unknown: transport failures (the reply may have been lost after the
// DN decided) and deadline expiry (the call may have landed before the
// statement gave up). Both forbid aborting; recovery resolves them.
func inDoubt(err error) bool {
	return simnet.IsTransient(err) || errors.Is(err, obs.ErrDeadlineExceeded)
}

// callRetryUntil issues a call under the default retry policy, bounded by
// a statement deadline (zero = none). Each attempt is one callUntil, and
// the backoff ladder stops rather than sleeping past the deadline. It
// returns the first fatal (non-transient) error immediately, or the last
// transport error once attempts are exhausted — in which case the
// outcome of the final attempt is genuinely unknown to the caller.
func (c *Coordinator) callRetryUntil(to string, msg any, deadline time.Time) (any, error) {
	res, err := retry.DoValue(c.clock, defaultRetry, deadline, simnet.IsTransient, func() (any, error) {
		return c.callUntil(to, msg, deadline)
	})
	return res, c.deadlineVerdict(to, err, deadline)
}

// deadlineVerdict reclassifies a transport failure whose real cause was
// the statement deadline: CallTimeout was given only the remaining
// time, so its ErrTimeout at an expired deadline IS the deadline
// verdict, and surfacing it as a generic transport fault would make the
// statement look retryable when its time budget is gone. The transport
// error is kept in the message for diagnosis.
func (c *Coordinator) deadlineVerdict(to string, err error, deadline time.Time) error {
	if err == nil || deadline.IsZero() || !simnet.IsTransient(err) {
		return err
	}
	if c.clock.Until(deadline) > 0 {
		return err
	}
	return fmt.Errorf("txn: call %s: %w (transport: %v)", to, obs.ErrDeadlineExceeded, err)
}
