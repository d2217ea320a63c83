package main

import (
	"fmt"

	"repro/benchmark/gen"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/srv"
)

// sbLoadBatch is the number of rows per INSERT of the sbtest loader. It
// is small because the statement lexer's cost grows with the square of
// the statement length (measured: 1 000-row statements load 10x slower
// per row than 50-row ones).
const sbLoadBatch = 50

// sbtest is the family of the three sysbench workloads: oltp_read,
// oltp_write and xdc_write share the table, the loader and the key
// discipline, and differ in deployment and statement mix.
type sbtest struct {
	sp         spec
	table      gen.Sbtest
	partitions int
	write      bool
	seed       int64
	ledger     ledger
}

// ledger is the client-side record of every row's k, updated when a
// transaction's COMMIT is acknowledged. Connections own disjoint halves
// of the ids (even/odd), so they never write the same entry.
type ledger []int64

func newLedger(t gen.Sbtest) ledger {
	l := make(ledger, t.Rows)
	for id := range l {
		l[id] = t.K(int64(id))
	}
	return l
}

// commit applies an acknowledged transaction: k = k + 1 on its first
// row, and its third row re-inserted with a new k.
func (l ledger) commit(t *gen.WriteTxn) {
	l[t.IDs[0]]++
	l[t.IDs[2]] = t.NewK
}

func (l ledger) sum() int64 {
	var s int64
	for _, k := range l {
		s += k
	}
	return s
}

func sameDC(int) simnet.DC { return simnet.DC1 }

// newOLTPRead: no injected delay and no writes, so the CN front half (srv,
// sql, optimizer, gms, core) and the dn/storage/btree read path do all the
// work; txn 2PC, paxos, wal and executor do none.
func newOLTPRead(p params) *sbtest {
	rows := 50000
	if p.small {
		rows = 4000
	}
	return &sbtest{
		sp: spec{
			name:     "oltp_read",
			loop:     "closed loop, 2 connections, auto-commit text QUERY frames",
			topology: fmt.Sprintf("1 DC, 2 CNs, 2 DN groups, ZeroTopology (no injected delay); sbtest %d rows x 8 partitions", rows),
			config:   core.Config{DCs: 1, CNsPerDC: 2, DNGroups: 2},
			clientDC: sameDC,
		},
		table: gen.Sbtest{Seed: p.seed, Rows: rows}, partitions: 8, seed: p.seed,
	}
}

// newOLTPWrite: the layers of oltp_read used for writes: txn 2PC, the dn
// write handler, storage MVCC write and commit, wal, single-replica paxos
// group commit and its timers; wait-dominated even with no injected delay.
func newOLTPWrite(p params) *sbtest {
	w := newOLTPRead(p)
	w.write = true
	w.sp.name = "oltp_write"
	w.sp.loop = "closed loop, 2 connections, one sysbench oltp_write_only transaction per operation as six text QUERY frames"
	return w
}

// newXDCWrite: the paper's Fig. 7 deployment. Latency is the count of
// cross-DC round trips (simnet, 2PC phases, Paxos quorum); xdc_write minus
// oltp_write isolates replication and network.
func newXDCWrite(p params) *sbtest {
	rows := 10000
	if p.small {
		rows = 2000
	}
	topo := simnet.DefaultTopology()
	return &sbtest{
		sp: spec{
			name: "xdc_write",
			loop: "closed loop, 2 connections, each in the DC of its CN; the transaction generator of oltp_write",
			topology: fmt.Sprintf("3 DCs, 1 CN per DC, 3 DN groups, each a 3-replica MultiDC Paxos group, HLC-SI; "+
				"injected delay: %v intra-DC RTT, %v inter-DC RTT; sbtest %d rows x 6 partitions",
				topo.IntraDCRTT, topo.InterDCRTT, rows),
			config: core.Config{DCs: 3, CNsPerDC: 1, DNGroups: 3, MultiDC: true,
				Oracle: core.OracleHLC, Topology: &topo},
			clientDC: func(conn int) simnet.DC { return simnet.DC(conn) },
		},
		table: gen.Sbtest{Seed: p.seed, Rows: rows}, partitions: 6, write: true, seed: p.seed,
	}
}

func (w *sbtest) spec() spec { return w.sp }

func (w *sbtest) load(e *env) error {
	if _, err := e.query(0, w.table.CreateSQL(w.partitions)); err != nil {
		return err
	}
	var stmts []string
	for lo := int64(0); lo < int64(w.table.Rows); lo += sbLoadBatch {
		hi := lo + sbLoadBatch
		if hi > int64(w.table.Rows) {
			hi = int64(w.table.Rows)
		}
		stmts = append(stmts, w.table.InsertSQL(lo, hi))
	}
	if err := e.loadStatements(stmts); err != nil {
		return err
	}
	w.ledger = newLedger(w.table)
	return nil
}

func (w *sbtest) clients(e *env) []client {
	out := make([]client, numConns)
	for i := range out {
		if w.write {
			out[i] = client{op: w.writeOp(e, e.conns[i], gen.NewWriteGen(w.table, w.seed, i))}
		} else {
			out[i] = client{op: w.readOp(e, e.conns[i], gen.NewReadGen(w.table, w.seed, i))}
		}
	}
	return out
}

// readOp issues one statement of the oltp_read mix and checks the rows
// that come back against the generator: count, ids, order where the
// statement fixes one, and every c payload recomputed from (seed, id).
func (w *sbtest) readOp(e *env, conn *srv.Conn, g *gen.ReadGen) func() error {
	return func() error {
		op := g.Next()
		res, err := conn.Query(op.SQL)
		if err != nil {
			return err
		}
		if msg := w.checkRead(op, res); msg != "" {
			e.violate("%s: %s", op.SQL, msg)
		}
		return nil
	}
}

func (w *sbtest) checkRead(op *gen.ReadOp, res *srv.Result) string {
	want := len(op.IDs)
	if op.Limit >= 0 && want > op.Limit {
		want = op.Limit
	}
	if len(res.Rows) != want {
		return fmt.Sprintf("%d rows, want %d", len(res.Rows), want)
	}
	var seen uint32 // bit i: op.IDs[i] was returned
	for i, row := range res.Rows {
		id := op.IDs[0]
		if op.IDCol >= 0 {
			id = row[op.IDCol].AsInt()
		}
		at := i
		if !op.Ordered {
			at = -1
			for j, want := range op.IDs {
				if want == id {
					at = j
				}
			}
		}
		if at < 0 || op.IDs[at] != id || seen&(1<<at) != 0 {
			return fmt.Sprintf("row %d has id %d, want one of %v (ordered=%v)", i, id, op.IDs, op.Ordered)
		}
		seen |= 1 << at
		if !w.table.CheckC(id, row[op.CCol].S) {
			return fmt.Sprintf("row id %d has c %q, want %q", id, row[op.CCol].S, w.table.C(id))
		}
	}
	return ""
}

// writeOp runs one write transaction and, once COMMIT is acknowledged,
// applies it to the ledger.
func (w *sbtest) writeOp(e *env, conn *srv.Conn, g *gen.WriteGen) func() error {
	return func() error {
		t := g.Next()
		if _, err := conn.Query("BEGIN"); err != nil {
			return err
		}
		for _, stmt := range t.Stmts {
			res, err := conn.Query(stmt)
			if err != nil {
				_, _ = conn.Query("ROLLBACK") // the operation already counts as failed
				return err
			}
			if res.Affected != 1 {
				e.violate("%s: %d rows affected, want 1", stmt, res.Affected)
			}
		}
		if _, err := conn.Query("COMMIT"); err != nil {
			return err
		}
		w.ledger.commit(t)
		return nil
	}
}

// verify compares COUNT(*) and SUM(k) of the table with the ledger. A
// failed transaction may or may not have committed, so each one widens
// the accepted SUM(k) by the most a single transaction can move it.
func (w *sbtest) verify(e *env, failed int64) error {
	res, err := e.query(0, "SELECT COUNT(*), SUM(k) FROM sbtest")
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		return fmt.Errorf("sbtest check returned %d rows", len(res.Rows))
	}
	count, sum := res.Rows[0][0].AsInt(), res.Rows[0][1].AsInt()
	want := w.ledger.sum() // for the read workload, still the generator's
	slack := failed * int64(w.table.Rows+1)
	if count < int64(w.table.Rows)-failed || count > int64(w.table.Rows) {
		return fmt.Errorf("sbtest COUNT(*) = %d, want %d (%d operations in doubt)", count, w.table.Rows, failed)
	}
	if sum < want-slack || sum > want+slack {
		return fmt.Errorf("sbtest SUM(k) = %d, ledger says %d (%d operations in doubt)", sum, want, failed)
	}
	return nil
}
