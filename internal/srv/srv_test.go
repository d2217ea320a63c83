package srv

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload/sysbench"
)

// newTestFrontDoor boots a small cluster with the wire server attached
// to the fabric and returns both plus the first CN's endpoint.
func newTestFrontDoor(t *testing.T, cfg core.Config) (*core.Cluster, *Server, string) {
	t.Helper()
	if cfg.DNGroups == 0 {
		cfg.DNGroups = 2
	}
	if cfg.CNsPerDC == 0 {
		cfg.CNsPerDC = 1
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Stop)
	s := NewServer(c, Options{})
	eps := s.AttachSimnet()
	if len(eps) == 0 {
		t.Fatal("no front-door endpoints")
	}
	return c, s, eps[0]
}

func dial(t *testing.T, c *core.Cluster, name, server string, opts HelloOptions) *Conn {
	t.Helper()
	conn, err := DialSim(c.Net, name, simnet.DC1, server, opts)
	if err != nil {
		t.Fatalf("dial %s: %v", name, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestWireBasic(t *testing.T) {
	c, srv, ep := newTestFrontDoor(t, core.Config{})
	conn := dial(t, c, "client1", ep, HelloOptions{Tenant: "t1"})

	if _, err := conn.Query(`CREATE TABLE kv (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 4`); err != nil {
		t.Fatalf("create: %v", err)
	}
	res, err := conn.Query(`INSERT INTO kv (id, v) VALUES (1, 10), (2, 20), (3, 30)`)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if res.Affected != 3 {
		t.Fatalf("affected = %d, want 3", res.Affected)
	}
	res, err = conn.Query(`SELECT id, v FROM kv WHERE id = 2`)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].I != 20 {
		t.Fatalf("rows = %+v, want one row with v=20", res.Rows)
	}

	// Transaction control over the wire.
	if _, err := conn.Query("BEGIN"); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := conn.Query(`UPDATE kv SET v = 99 WHERE id = 1`); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := conn.Query("ROLLBACK"); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	res, err = conn.Query(`SELECT v FROM kv WHERE id = 1`)
	if err != nil {
		t.Fatalf("select after rollback: %v", err)
	}
	if res.Rows[0][0].I != 10 {
		t.Fatalf("v = %d after rollback, want 10", res.Rows[0][0].I)
	}

	if srv.SimConnCount() != 1 {
		t.Fatalf("conns = %d, want 1", srv.SimConnCount())
	}
	conn.Close()
	if srv.SimConnCount() != 0 {
		t.Fatalf("conns after close = %d, want 0", srv.SimConnCount())
	}
}

// TestPreparedLifecycle walks a handle through PREPARE → EXECUTE → DDL
// epoch bump → EXECUTE: the second execution must transparently re-plan
// (never serve a stale routing decision) and still be correct.
func TestPreparedLifecycle(t *testing.T) {
	c, _, ep := newTestFrontDoor(t, core.Config{})
	conn := dial(t, c, "client1", ep, HelloOptions{})

	mustQuery(t, conn, `CREATE TABLE users (id BIGINT, city VARCHAR(32), balance BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	for i := 0; i < 20; i++ {
		mustQuery(t, conn, fmt.Sprintf(
			`INSERT INTO users (id, city, balance) VALUES (%d, 'c%d', %d)`, i, i%4, i*100))
	}

	st, err := conn.Prepare(`SELECT id, balance FROM users WHERE city = ?`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if st.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", st.NumParams())
	}
	res1, err := st.Exec(types.Str("c1"))
	if err != nil {
		t.Fatalf("exec 1: %v", err)
	}

	// DDL bumps the schema epoch; the cached skeleton behind the handle
	// is now stale and must be re-planned, not reused.
	mustQuery(t, conn, `CREATE GLOBAL INDEX idx_city ON users (city)`)

	res2, err := st.Exec(types.Str("c1"))
	if err != nil {
		t.Fatalf("exec 2 (post-DDL): %v", err)
	}
	if len(res2.Rows) != len(res1.Rows) {
		t.Fatalf("post-DDL rows = %d, want %d", len(res2.Rows), len(res1.Rows))
	}
	// Different binding, same handle: value-dependent routing must follow
	// the new parameter.
	res3, err := st.Exec(types.Str("c2"))
	if err != nil {
		t.Fatalf("exec 3: %v", err)
	}
	for _, row := range res3.Rows {
		if row[0].I%4 != 2 {
			t.Fatalf("row %v does not belong to city c2", row)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPreparedDML covers prepared writes: the same INSERT handle bound
// to different values must land each row on its own (possibly different)
// shard.
func TestPreparedDML(t *testing.T) {
	c, _, ep := newTestFrontDoor(t, core.Config{})
	conn := dial(t, c, "client1", ep, HelloOptions{})
	mustQuery(t, conn, `CREATE TABLE kv (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)

	ins, err := conn.Prepare(`INSERT INTO kv (id, v) VALUES (?, ?)`)
	if err != nil {
		t.Fatalf("prepare insert: %v", err)
	}
	for i := 0; i < 16; i++ {
		res, err := ins.Exec(types.Int(int64(i)), types.Int(int64(i*2)))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if res.Affected != 1 {
			t.Fatalf("insert %d affected = %d", i, res.Affected)
		}
	}
	res := mustQuery(t, conn, `SELECT COUNT(*) FROM kv`)
	if res.Rows[0][0].I != 16 {
		t.Fatalf("count = %d, want 16", res.Rows[0][0].I)
	}
	sel, err := conn.Prepare(`SELECT v FROM kv WHERE id = ?`)
	if err != nil {
		t.Fatalf("prepare select: %v", err)
	}
	for _, id := range []int64{0, 7, 15} {
		res, err := sel.Exec(types.Int(id))
		if err != nil {
			t.Fatalf("select %d: %v", id, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != id*2 {
			t.Fatalf("select %d = %+v, want v=%d", id, res.Rows, id*2)
		}
	}
}

// TestPreparedMisuse: protocol misuse must come back as clean, typed
// wire errors — never a hang, panic, or silent success.
func TestPreparedMisuse(t *testing.T) {
	c, _, ep := newTestFrontDoor(t, core.Config{})
	conn := dial(t, c, "client1", ep, HelloOptions{})
	mustQuery(t, conn, `CREATE TABLE kv (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 2`)

	// Unknown statement id.
	bogus := &Stmt{c: conn, id: 999}
	if _, err := bogus.Exec(); !errors.Is(err, ErrBadStmt) {
		t.Fatalf("unknown id: err = %v, want ErrBadStmt", err)
	}

	// Arity mismatch.
	st, err := conn.Prepare(`SELECT v FROM kv WHERE id = ?`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if _, err := st.Exec(); err == nil {
		t.Fatal("zero-arg exec of 1-param statement succeeded")
	}
	if _, err := st.Exec(types.Int(1), types.Int(2)); err == nil {
		t.Fatal("two-arg exec of 1-param statement succeeded")
	}

	// Double close.
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := st.Close(); !errors.Is(err, ErrBadStmt) {
		t.Fatalf("double close: err = %v, want ErrBadStmt", err)
	}
	// Executing a closed handle is also a bad_stmt.
	if _, err := st.Exec(types.Int(1)); !errors.Is(err, ErrBadStmt) {
		t.Fatalf("exec after close: err = %v, want ErrBadStmt", err)
	}

	// Parse errors are typed.
	if _, err := conn.Prepare(`SELEKT candy`); !errors.Is(err, ErrParse) {
		t.Fatalf("prepare garbage: err = %v, want ErrParse", err)
	}
	if _, err := conn.Query(`SELEKT candy`); !errors.Is(err, ErrParse) {
		t.Fatalf("query garbage: err = %v, want ErrParse", err)
	}
}

// TestQueryErrorCodes: a statement the parser rejects comes back as a
// parse error carrying the parser's message, while a statement that
// parses but fails to execute does not, and lower-case transaction
// verbs are still session-state changes.
func TestQueryErrorCodes(t *testing.T) {
	c, _, ep := newTestFrontDoor(t, core.Config{})
	conn := dial(t, c, "client1", ep, HelloOptions{})
	var we *WireError
	_, err := conn.Query(`SELECT id FROM kv WHERE id = (`)
	if !errors.As(err, &we) || we.Code != CodeParse || !strings.Contains(we.Msg, "sql: parse error at") {
		t.Fatalf("malformed select: err = %v, want a %s wire error with the parser's message", err, CodeParse)
	}
	_, err = conn.Query(`SELECT id FROM no_such_table WHERE id = 1`)
	if err == nil || errors.Is(err, ErrParse) || errors.As(err, &we) && we.Code == CodeParse {
		t.Fatalf("unknown table: err = %v, want an error that is not a parse error", err)
	}
	for _, verb := range []string{"begin", "rollback;", " Start Transaction ", "commit"} {
		if _, err := conn.Query(verb); err != nil {
			t.Fatalf("%q: %v", verb, err)
		}
	}
}

// TestNoHello: frames from a client that never shook hands are refused
// without leaking a session.
func TestNoHello(t *testing.T) {
	c, s, ep := newTestFrontDoor(t, core.Config{})
	c.Net.Register("rude", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	resp, err := c.Net.Call("rude", ep, putStr([]byte{kindQuery}, "SELECT 1"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	_, derr := decodeResponse(resp.([]byte))
	var we *WireError
	if !errors.As(derr, &we) || we.Code != CodeNoHello {
		t.Fatalf("err = %v, want no_hello wire error", derr)
	}
	if s.SimConnCount() != 0 {
		t.Fatalf("conns = %d, want 0 (no session leaked)", s.SimConnCount())
	}
}

// TestSessionBusyWire: two frames racing on ONE connection must not
// silently serialize — the overlapping statement gets the retryable
// "busy" error while the connection stays healthy. Latency on the
// fabric holds the first statement in flight long enough for the second
// frame to arrive mid-execution.
func TestSessionBusyWire(t *testing.T) {
	topo := simnet.Topology{IntraDCRTT: 10 * time.Millisecond, InterDCRTT: 10 * time.Millisecond}
	c, _, ep := newTestFrontDoor(t, core.Config{Topology: &topo})
	conn := dial(t, c, "client1", ep, HelloOptions{})
	mustQuery(t, conn, `CREATE TABLE kv (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 2`)
	mustQuery(t, conn, `INSERT INTO kv (id, v) VALUES (1, 1)`)

	var busy atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := conn.Query(`SELECT v FROM kv WHERE id = 1`)
			if errors.Is(err, core.ErrSessionBusy) {
				busy.Add(1)
			} else if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if busy.Load() == 0 {
		t.Fatal("4 concurrent statements on one connection and none reported ErrSessionBusy")
	}
	// The connection is not poisoned: the next statement succeeds.
	if _, err := conn.Query(`SELECT v FROM kv WHERE id = 1`); err != nil {
		t.Fatalf("statement after busy burst: %v", err)
	}
}

// TestWireTCP exercises the real-socket transport end to end.
func TestWireTCP(t *testing.T) {
	c, err := core.NewCluster(core.Config{DNGroups: 2, CNsPerDC: 1})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Stop)
	s := NewServer(c, Options{MaxConns: 16})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close(); l.Close() })

	conn, err := Dial(l.Addr().String(), HelloOptions{Tenant: "tcp-tenant"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	mustQuery(t, conn, `CREATE TABLE kv (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 2`)
	mustQuery(t, conn, `INSERT INTO kv (id, v) VALUES (7, 70)`)
	st, err := conn.Prepare(`SELECT v FROM kv WHERE id = ?`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	res, err := st.Exec(types.Int(7))
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 70 {
		t.Fatalf("rows = %+v, want v=70", res.Rows)
	}
}

// TestWorkloadAdapter runs the sysbench driver over the wire protocol:
// its pre-bound ASTs must format, auto-prepare, and execute with the
// same results the in-process path produces.
func TestWorkloadAdapter(t *testing.T) {
	c, _, ep := newTestFrontDoor(t, core.Config{})
	seed := c.CN(simnet.DC1).NewSession()
	cfg := sysbench.Config{Rows: 100, Partitions: 4}
	if err := sysbench.Load(seed, cfg); err != nil {
		t.Fatalf("load: %v", err)
	}

	conn := dial(t, c, "wl-client", ep, HelloOptions{})
	d := sysbench.NewDriver(&WorkloadSession{C: conn}, cfg, 1)
	for i := 0; i < 10; i++ {
		if err := d.PointOp(); err != nil {
			t.Fatalf("point op %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := d.ReadWrite(); err != nil {
			t.Fatalf("read-write txn %d: %v", i, err)
		}
	}
}

// TestWireConcurrentSoak is the in-package slice of the contention-wall
// sweep: many connections racing PREPARE/EXECUTE/CLOSE against a mid-run
// DDL epoch bump, run under -race in `make test`. The full 10k-session
// soak lives in testcluster.
func TestWireConcurrentSoak(t *testing.T) {
	c, s, _ := newTestFrontDoor(t, core.Config{CNsPerDC: 2})
	eps := s.SimEndpoints()
	admin := dial(t, c, "admin", eps[0], HelloOptions{})
	mustQuery(t, admin, `CREATE TABLE kv (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	for i := 0; i < 64; i++ {
		mustQuery(t, admin, fmt.Sprintf(`INSERT INTO kv (id, v) VALUES (%d, %d)`, i, i))
	}

	const workers = 24
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := DialSim(c.Net, fmt.Sprintf("soak-%d", w), simnet.DC1, eps[w%len(eps)], HelloOptions{})
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st, err := conn.Prepare(`SELECT v FROM kv WHERE id = ?`)
				if err != nil {
					errCh <- fmt.Errorf("worker %d prepare: %w", w, err)
					return
				}
				for j := 0; j < 4; j++ {
					if _, err := st.Exec(types.Int(int64((w*7 + i + j) % 64))); err != nil {
						errCh <- fmt.Errorf("worker %d exec: %w", w, err)
						return
					}
				}
				if err := st.Close(); err != nil {
					errCh <- fmt.Errorf("worker %d close: %w", w, err)
					return
				}
			}
		}(w)
	}
	// Mid-soak DDL: every cached plan and prepared handle goes stale at
	// once; correctness must survive the epoch transition.
	time.Sleep(50 * time.Millisecond)
	mustQuery(t, admin, `CREATE GLOBAL INDEX idx_v ON kv (v)`)
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func mustQuery(t *testing.T, c *Conn, q string) *Result {
	t.Helper()
	res, err := c.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// TestDecodeRowsBoundsCounts: a ROWS frame's column and row counts are
// checked against the bytes left in the frame before anything is sized
// by them. A 5-byte frame claiming 16 Mi columns, and a 9-byte one
// claiming 16 Mi rows of no columns, are malformed and cost no more
// than a few allocations to refuse.
func TestDecodeRowsBoundsCounts(t *testing.T) {
	frames := map[string][]byte{
		"16 Mi columns":          putU32([]byte{respRows}, 16<<20),
		"16 Mi rows, no columns": putU32(putU32([]byte{respRows}, 0), 16<<20),
		"2 rows, 1 value":        putValue(putU32(putStr(putU32([]byte{respRows}, 1), "c"), 2), types.Int(1)),
	}
	for name, f := range frames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeResponse(f)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: err %v, want ErrMalformedFrame", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", name, len(f), n)
		}
	}
}

// TestDecodeRowsSlab: decoded rows share one slab of values, each capped
// so that appending to a row never overwrites the next, and their
// strings share one copy of the frame: decoding costs the same number of
// allocations for 2 rows as for 40.
func TestDecodeRowsSlab(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{2, 40} {
		var rows []types.Row
		for i := 0; i < n; i++ {
			rows = append(rows, types.Row{types.Int(int64(i)), types.Str(fmt.Sprint("c", i))})
		}
		f := rowsFrame([]string{"id", "c"}, rows)
		allocs[n] = testing.AllocsPerRun(50, func() {
			if _, err := decodeResponse(f); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[40] != allocs[2] {
		t.Fatalf("decoding allocates %.0f times for 2 rows and %.0f for 40", allocs[2], allocs[40])
	}

	rows := []types.Row{{types.Int(1), types.Str("a")}, {types.Int(2), types.Str("b")}}
	res, err := decodeResponse(rowsFrame([]string{"id", "c"}, rows))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(res.Rows[0], types.Int(99))
	if len(res.Rows) != 2 || res.Rows[1][0].I != 2 || res.Rows[1][1].S != "b" || res.Rows[0][1].S != "a" {
		t.Fatalf("rows = %v", res.Rows)
	}
}
