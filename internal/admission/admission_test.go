package admission

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func metrics(reg *obs.Registry) Metrics {
	return Metrics{
		Admitted:         reg.Counter("admission.admitted"),
		Shed:             reg.Counter("admission.shed"),
		Brownout:         reg.Counter("admission.brownout"),
		DeadlineExceeded: reg.Counter("deadline.exceeded"),
		QueueWait:        reg.Histogram("admission.queue_wait"),
	}
}

func TestAdmitImmediate(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxConcurrent: 2}, metrics(reg))
	r1, err := c.Admit("t1", TPAuto, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Admit("t1", AP, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Inflight(); got != 2 {
		t.Fatalf("inflight want 2 got %d", got)
	}
	r1()
	r2()
	r2() // double release must be a no-op
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight want 0 got %d", got)
	}
	if got := reg.Counter("admission.admitted").Value(); got != 2 {
		t.Fatalf("admitted want 2 got %d", got)
	}
}

func TestQueueWaitShed(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxConcurrent: 1, MaxQueueWait: 5 * time.Millisecond}, metrics(reg))
	release, err := c.Admit("t1", TPAuto, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	_, err = c.Admit("t1", TPAuto, time.Time{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if got := reg.Counter("admission.shed").Value(); got != 1 {
		t.Fatalf("shed want 1 got %d", got)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("shed waiter must be dequeued, got %d queued", got)
	}
}

func TestPriorityOrder(t *testing.T) {
	// MaxQueueWait is out of reach: the test is about wake order, and a
	// loaded host may take long to park three goroutines.
	c := New(Config{MaxConcurrent: 1, MaxQueueWait: time.Minute}, Metrics{})
	release, err := c.Admit("t", TPAuto, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	var order []Class
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Park the waiters one at a time, lowest priority first. AP must go
	// first for a second reason: the default brownout watermark
	// (MaxQueue/2 = 2) sheds an AP arrival that finds two waiters queued.
	for i, class := range []Class{AP, TPTxn, TPAuto} {
		wg.Add(1)
		go func(cl Class) {
			defer wg.Done()
			rel, err := c.Admit("t", cl, time.Time{})
			if err != nil {
				t.Errorf("class %v: %v", cl, err)
				return
			}
			mu.Lock()
			order = append(order, cl)
			mu.Unlock()
			rel()
		}(class)
		for parked := time.Now(); c.Queued() < i+1; time.Sleep(time.Millisecond) {
			if t.Failed() || time.Since(parked) > 30*time.Second {
				t.Fatalf("class %v never queued (depth %d)", class, c.Queued())
			}
		}
	}
	release()
	wg.Wait()
	want := []Class{TPAuto, TPTxn, AP}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order want %v got %v", want, order)
		}
	}
}

func TestBrownoutShedsAPFirst(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxConcurrent: 1, MaxQueue: 8, BrownoutQueue: 1, MaxQueueWait: 200 * time.Millisecond}, metrics(reg))
	release, err := c.Admit("t", TPAuto, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// Park one TP waiter to reach the brownout watermark.
	tpDone := make(chan error, 1)
	go func() {
		rel, err := c.Admit("t", TPTxn, time.Time{})
		if err == nil {
			rel()
		}
		tpDone <- err
	}()
	for i := 0; i < 1000 && c.Queued() < 1; i++ {
		time.Sleep(time.Millisecond)
	}
	// AP arrival is shed immediately — no queueing, no waiting.
	shedAt := time.Now()
	_, err = c.Admit("t", AP, time.Time{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want brownout shed, got %v", err)
	}
	if waited := time.Since(shedAt); waited > 100*time.Millisecond {
		t.Fatalf("brownout shed must not wait, took %v", waited)
	}
	// TP at the same depth still queues (and is admitted on release).
	release()
	if err := <-tpDone; err != nil {
		t.Fatalf("queued TP should have been admitted: %v", err)
	}
	if got := reg.Counter("admission.brownout").Value(); got != 1 {
		t.Fatalf("brownout want 1 got %d", got)
	}
}

func TestTenantQuota(t *testing.T) {
	c := New(Config{MaxConcurrent: 4, TenantSlots: 1, MaxQueueWait: 5 * time.Millisecond}, Metrics{})
	rel, err := c.Admit("hog", TPAuto, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	// Same tenant is over quota even though global slots are free.
	if _, err := c.Admit("hog", TPAuto, time.Time{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want quota shed, got %v", err)
	}
	// A different tenant sails through.
	rel2, err := c.Admit("other", TPAuto, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	rel2()
}

func TestDeadlineWhileQueued(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxConcurrent: 1, MaxQueueWait: time.Second}, metrics(reg))
	release, err := c.Admit("t", TPAuto, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	_, err = c.Admit("t", TPAuto, time.Now().Add(5*time.Millisecond))
	if !errors.Is(err, obs.ErrDeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if got := reg.Counter("deadline.exceeded").Value(); got != 1 {
		t.Fatalf("deadline.exceeded want 1 got %d", got)
	}
	// Already-expired deadline is refused before touching the queue.
	if _, err := c.Admit("t", TPAuto, time.Now().Add(-time.Millisecond)); !errors.Is(err, obs.ErrDeadlineExceeded) {
		t.Fatalf("want immediate deadline refusal, got %v", err)
	}
}

// TestStressNoLostTokens hammers the controller from many goroutines
// under -race: every admitted statement must release, sheds must not
// leak queue entries, and the controller must end drained.
func TestStressNoLostTokens(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{
		MaxConcurrent: 8,
		MaxQueue:      32,
		BrownoutQueue: 16,
		MaxQueueWait:  2 * time.Millisecond,
		TenantSlots:   4,
	}, metrics(reg))

	const goroutines = 64
	const perG = 50
	var admitted, shed int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b", "c"}[g%3]
			class := []Class{TPAuto, TPTxn, AP}[g%3]
			for i := 0; i < perG; i++ {
				release, err := c.Admit(tenant, class, time.Time{})
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("unexpected admit error: %v", err)
						return
					}
					atomic.AddInt64(&shed, 1)
					continue
				}
				atomic.AddInt64(&admitted, 1)
				if n := c.Inflight(); n > 8 {
					t.Errorf("inflight %d exceeds MaxConcurrent", n)
				}
				time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
				release()
			}
		}(g)
	}
	wg.Wait()

	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight must drain to 0, got %d", got)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("queue must drain to 0, got %d", got)
	}
	if admitted+shed != goroutines*perG {
		t.Fatalf("accounting: admitted %d + shed %d != %d", admitted, shed, goroutines*perG)
	}
	if got := reg.Counter("admission.admitted").Value(); got != admitted {
		t.Fatalf("admitted counter %d != observed %d", got, admitted)
	}
	if got := reg.Counter("admission.shed").Value(); got != shed {
		t.Fatalf("shed counter %d != observed %d", got, shed)
	}
	if admitted == 0 || shed == 0 {
		t.Fatalf("stress should both admit and shed (admitted=%d shed=%d)", admitted, shed)
	}
}
