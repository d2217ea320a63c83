package storage

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hlc"
	"repro/internal/types"
)

// TestSnapshotReadsUnderContendedVacuum: writers overwrite the same few
// rows while readers read at past commit points and a vacuum loop trims
// history to a few milliseconds behind the newest commit. Commit
// timestamps are drawn and committed in order under one lock, so no
// commit ever lands below a snapshot already read at. Every read equals
// the model's rows at its snapshot or fails with ErrSnapshotTooOld, and a
// read that pinned its snapshot first never fails.
func TestSnapshotReadsUnderContendedVacuum(t *testing.T) {
	const rows, writers, readers, commits = 4, 4, 4, 150
	const keepMs = 3 // history the vacuum loop keeps behind the newest commit
	e, _ := newUserEngine(t)
	var ms atomic.Int64 // the writers' physical clock: one millisecond per commit
	ms.Store(1 << 20)
	clock := hlc.NewClock(ms.Load)

	// history is the model: the committed rows after every commit, in
	// commit order (guarded by mu, which also orders the commits).
	type point struct {
		ts   hlc.Timestamp
		vals []int64
	}
	var mu sync.Mutex
	seed := e.Begin(clock.Now())
	for id := int64(0); id < rows; id++ {
		if err := e.Insert(seed, 1, userRow(id, "r", 0)); err != nil {
			t.Fatal(err)
		}
	}
	seedTS := clock.Advance()
	if err := e.Commit(seed, seedTS); err != nil {
		t.Fatal(err)
	}
	history := []point{{ts: seedTS, vals: make([]int64, rows)}}
	latest := func() point {
		mu.Lock()
		defer mu.Unlock()
		return history[len(history)-1]
	}
	// read reads every row at ts: through view when the reader pinned ts
	// (the DN's path), else with the unpinned GetAt/ScanRangeAt.
	read := func(ts hlc.Timestamp, view *Txn, scan bool) ([]int64, error) {
		vals := make([]int64, 0, rows)
		collect := func(_ []byte, row types.Row) bool {
			vals = append(vals, row[2].AsInt())
			return true
		}
		switch {
		case scan && view != nil:
			return vals, e.ScanRange(view, 1, nil, nil, collect)
		case scan:
			return vals, e.ScanRangeAt(1, nil, nil, ts, collect)
		}
		for id := int64(0); id < rows; id++ {
			pk := types.EncodeKey(nil, types.Int(id))
			var row types.Row
			var ok bool
			var err error
			if view != nil {
				row, ok, err = e.Get(view, 1, pk)
			} else {
				row, ok, err = e.GetAt(1, pk, ts)
			}
			if err != nil {
				return nil, err
			}
			if !ok {
				return append(vals, -1), nil
			}
			vals = append(vals, row[2].AsInt())
		}
		return vals, nil
	}

	stop := make(chan struct{})
	var writersWG, others sync.WaitGroup
	var vacuums, freed, good, tooOld atomic.Int64
	// The writers run until the readers and the vacuum loop have done
	// their share beside them, whatever the scheduler did (or a reader
	// failed).
	overlapped := func() bool {
		return vacuums.Load() >= 20 && good.Load()+tooOld.Load() >= 200 || t.Failed()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for n := 0; n < commits || !overlapped(); {
				base := latest()
				id := (w + n) % rows
				txn, err := e.TryBegin(base.ts)
				if errors.Is(err, ErrSnapshotTooOld) {
					continue // vacuum passed base since; take a newer one
				}
				val := int64(w*1_000_000 + n + 1)
				if err := e.Update(txn, 1, userRow(int64(id), "r", val)); err != nil {
					_ = e.Abort(txn)
					if !errors.Is(err, ErrWriteConflict) {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					continue
				}
				mu.Lock()
				ms.Add(1)
				ts := clock.Advance()
				if err := e.Commit(txn, ts); err != nil {
					mu.Unlock()
					t.Errorf("writer %d: commit: %v", w, err)
					return
				}
				p := point{ts: ts, vals: slices.Clone(history[len(history)-1].vals)}
				p.vals[id] = val
				history = append(history, p)
				mu.Unlock()
				n++
				runtime.Gosched() // every loop yields: all three interleave at -cpu 1
			}
		}(w)
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := hlc.New(latest().ts.Physical()+VacuumWindow.Milliseconds()-keepMs, 0)
			freed.Add(int64(e.Vacuum(now)))
			vacuums.Add(1)
			runtime.Gosched()
		}
	}()
	for r := 0; r < readers; r++ {
		others.Add(1)
		go func(r int) {
			defer others.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				p := history[len(history)-1-rnd.Intn(min(len(history), 16))]
				mu.Unlock()
				pinned := n%2 == 0
				var view *Txn
				if pinned {
					var err error
					if view, err = e.Pin(p.ts); err != nil {
						if !errors.Is(err, ErrSnapshotTooOld) {
							t.Errorf("reader %d: pin: %v", r, err)
							return
						}
						tooOld.Add(1)
						continue
					}
				}
				got, err := read(p.ts, view, n%4 < 2)
				if pinned {
					e.Unpin(view)
				}
				switch {
				case errors.Is(err, ErrSnapshotTooOld) && !pinned:
					tooOld.Add(1)
				case err != nil:
					t.Errorf("reader %d at %v (pinned %v): %v", r, p.ts, pinned, err)
					return
				case !slices.Equal(got, p.vals):
					t.Errorf("reader %d at %v (pinned %v) = %v, model %v", r, p.ts, pinned, got, p.vals)
					return
				default:
					good.Add(1)
				}
				runtime.Gosched()
			}
		}(r)
	}
	writersWG.Wait()
	close(stop)
	others.Wait()

	last := latest()
	freed.Add(int64(e.Vacuum(hlc.New(last.ts.Physical()+VacuumWindow.Milliseconds()-keepMs, 0))))
	if _, err := read(seedTS, nil, false); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("read at the seed, below the final horizon: err = %v, want ErrSnapshotTooOld", err)
	}
	if got, err := read(last.ts, nil, true); err != nil || !slices.Equal(got, last.vals) {
		t.Fatalf("read at the last commit = %v, %v; model %v", got, err, last.vals)
	}
	if _, ok := e.OldestSnapshot(); ok {
		t.Fatal("a pin or transaction outlived the test")
	}
	if freed.Load() == 0 {
		t.Fatal("vacuum freed nothing")
	}
	t.Logf("%d commits, %d vacuums freed %d versions, %d reads right, %d too old",
		len(history)-1, vacuums.Load(), freed.Load(), good.Load(), tooOld.Load())
}
