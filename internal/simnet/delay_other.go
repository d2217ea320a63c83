//go:build !linux

package simnet

import "time"

// alarm is a runtime timer where timerfd is unavailable. It keeps the
// queue correct (no wait ends early) but not exact: an idle process's
// timer fires up to ~1 ms late.
type alarm struct{ t *time.Timer }

func newAlarm() *alarm {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &alarm{t: t}
}

// set makes the alarm fire d from now. A value left over from an earlier
// setting only wakes the waker early, and it re-checks the heap.
func (a *alarm) set(d time.Duration) { a.t.Reset(d) }

func (a *alarm) wait() { <-a.t.C }
