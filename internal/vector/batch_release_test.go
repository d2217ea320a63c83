package vector

import (
	"sync"
	"testing"

	"repro/internal/types"
)

// TestReleaseSharedViewIsNoOp: a Shared view over storage owned
// elsewhere must never be pooled, with or without an Owner link.
func TestReleaseSharedViewIsNoOp(t *testing.T) {
	_, putsBefore, _ := PoolStats()
	view := &Batch{Vecs: []*Vector{{}}, Shared: true}
	view.Release()
	view.Release()
	_, putsAfter, _ := PoolStats()
	if putsAfter != putsBefore {
		t.Fatalf("Shared view Release pooled something: puts %d -> %d", putsBefore, putsAfter)
	}
}

// TestDoubleReleasePoisoned: the second Release of an owned batch must
// not re-pool the same backing vectors (two NewBatch callers would then
// share storage).
func TestDoubleReleasePoisoned(t *testing.T) {
	b := NewBatch(2)
	b.AppendRow(types.Row{types.Int(1), types.Str("x")})
	_, putsBefore, dblBefore := PoolStats()
	b.Release()
	b.Release() // bug under test: must be a counted no-op
	_, putsAfter, dblAfter := PoolStats()
	if putsAfter-putsBefore != 1 {
		t.Fatalf("double Release re-pooled: puts delta = %d, want 1", putsAfter-putsBefore)
	}
	if dblAfter-dblBefore != 1 {
		t.Fatalf("double-release counter delta = %d, want 1", dblAfter-dblBefore)
	}
}

// TestSharedViewForwardsToOwner: a zero-copy projection view borrows a
// pooled batch's storage; releasing the view must recycle the owner
// exactly once.
func TestSharedViewForwardsToOwner(t *testing.T) {
	owner := NewBatch(1)
	owner.AppendRow(types.Row{types.Int(7)})
	view := &Batch{Vecs: owner.Vecs, Shared: true, Owner: owner}
	_, putsBefore, _ := PoolStats()
	view.Release()
	_, putsAfter, _ := PoolStats()
	if putsAfter-putsBefore != 1 {
		t.Fatalf("view Release did not recycle owner: puts delta = %d", putsAfter-putsBefore)
	}
	// A second view Release must not double-pool the owner.
	view.Owner = owner
	_, _, dblBefore := PoolStats()
	view.Release()
	_, putsAgain, dblAfter := PoolStats()
	if putsAgain != putsAfter {
		t.Fatalf("second forwarded Release re-pooled owner")
	}
	if dblAfter-dblBefore != 1 {
		t.Fatalf("second forwarded Release not counted as double release")
	}
}

// TestReleaseAfterOwnershipTransfer exercises the NextBatch ownership
// protocol under -race: producers build batches and hand them off
// (transferring ownership exactly as BatchOperator.NextBatch does);
// consumers read every row and Release. Any touch of a batch after
// transfer, or pool corruption from a double release, trips the race
// detector or the poison counter.
func TestReleaseAfterOwnershipTransfer(t *testing.T) {
	const producers = 4
	const batchesEach = 200
	_, _, dblBefore := PoolStats()
	ch := make(chan *Batch, 8)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < batchesEach; i++ {
				rows := []types.Row{
					{types.Int(seed), types.Str("a")},
					{types.Int(seed + 1), types.Str("b")},
				}
				b := FromRows(rows, 2)
				ch <- b // ownership transfer: producer must not touch b again
			}
		}(int64(p))
	}
	consumed := make(chan int64)
	go func() {
		var total int64
		for b := range ch {
			n := b.NumRows()
			for i := 0; i < n; i++ {
				_ = b.Row(i)
			}
			total += int64(n)
			b.Release()
		}
		consumed <- total
	}()
	wg.Wait()
	close(ch)
	if total := <-consumed; total != producers*batchesEach*2 {
		t.Fatalf("consumed %d rows, want %d", total, producers*batchesEach*2)
	}
	if _, _, dblAfter := PoolStats(); dblAfter != dblBefore {
		t.Fatalf("ownership-transfer pipeline triggered %d double releases", dblAfter-dblBefore)
	}
}

// TestAppendRowsSlab: the rows of one batch share one slab of values,
// honour the selection vector, and are capped so that appending to a
// row never overwrites the next.
func TestAppendRowsSlab(t *testing.T) {
	b := FromRows([]types.Row{
		{types.Int(1), types.Str("a")},
		{types.Int(2), types.Str("b")},
		{types.Int(3), types.Str("c")},
	}, 2)
	b.Sel = []int{0, 2}
	prefix := []types.Row{{types.Int(0)}}
	rows := b.AppendRows(prefix)
	if allocs := testing.AllocsPerRun(50, func() { b.AppendRows(make([]types.Row, 0, 2)) }); allocs != 1 {
		t.Fatalf("AppendRows of 2 rows allocates %.0f times, want 1 (the slab)", allocs)
	}
	_ = append(rows[1], types.Int(99))
	if len(rows) != 3 || rows[0][0].I != 0 || rows[1][0].I != 1 || rows[1][1].S != "a" ||
		rows[2][0].I != 3 || rows[2][1].S != "c" {
		t.Fatalf("rows = %v", rows)
	}
}
