package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/benchmark/gen"
	"repro/internal/btree"
	"repro/internal/colindex"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dn"
	"repro/internal/executor"
	"repro/internal/hlc"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/paxos"
	"repro/internal/simnet"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/wal"
)

// perLayer is the vocabulary of per-layer metrics (BENCHMARK.json's
// per_layer list). Every traced run reports every one of them: the
// ladder and the counts come from the workload's own cluster, statement
// stream and topology; the standalone measures take the workload's keys
// and topology as input; the measures that need the TPC-C tables use
// htap_mix's cluster, which the other workloads build on the side.
var perLayer = []metricDef{
	{name: "srv.query_self_us", unit: "us", better: "lower"},
	{name: "srv.prepared_exec_us", unit: "us", better: "lower"},
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "sql.fingerprint_us", unit: "us", better: "lower"},
	{name: "sql.parse_allocs", unit: "count", better: "lower"},
	{name: "optimizer.cache_lookup_us", unit: "us", better: "lower"},
	{name: "optimizer.plan_cold_us", unit: "us", better: "lower"},
	{name: "optimizer.plancache_hit_frac", unit: "frac", better: "higher"},
	{name: "gms.route_us", unit: "us", better: "lower"},
	{name: "core.execute_us", unit: "us", better: "lower"},
	{name: "core.prepared_us", unit: "us", better: "lower"},
	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "txn.point_get_us", unit: "us", better: "lower"},
	{name: "txn.commit_1pc_us", unit: "us", better: "lower"},
	{name: "txn.write_commit_us", unit: "us", better: "lower"},
	{name: "txn.rpcs_per_commit", unit: "count", better: "lower"},
	{name: "dn.read_rpc_us", unit: "us", better: "lower"},
	{name: "dn.multiget_us_per_key", unit: "us", better: "lower"},
	{name: "dn.rpcs_per_op", unit: "count", better: "lower"},
	{name: "storage.get_us", unit: "us", better: "lower"},
	{name: "storage.insert_us", unit: "us", better: "lower"},
	{name: "storage.update_us", unit: "us", better: "lower"},
	{name: "storage.commit_us", unit: "us", better: "lower"},
	{name: "storage.scan_us_per_krow", unit: "us", better: "lower"},
	{name: "btree.get_ns", unit: "ns", better: "lower"},
	{name: "btree.set_ns", unit: "ns", better: "lower"},
	{name: "btree.height", unit: "count", better: "lower"},
	{name: "wal.append_mtr_ns", unit: "ns", better: "lower"},
	{name: "wal.frame_encode_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_txn", unit: "B", better: "lower"},
	{name: "paxos.propose_wait_us", unit: "us", better: "lower"},
	{name: "paxos.flushes_per_commit", unit: "count", better: "lower"},
	{name: "paxos.group_size_mean", unit: "count", better: "higher"},
	{name: "paxos.wire_bytes_per_commit", unit: "B", better: "lower"},
	{name: "paxos.compress_ratio", unit: "ratio", better: "higher"},
	{name: "simnet.call_overhead_us", unit: "us", better: "lower"},
	{name: "simnet.msgs_per_op", unit: "count", better: "lower"},
	{name: "simnet.rtt_intra_us", unit: "us", better: "lower"},
	{name: "simnet.rtt_inter_us", unit: "us", better: "lower"},
	{name: "hlc.now_ns", unit: "ns", better: "lower"},
	{name: "executor.chq1_us", unit: "us", better: "lower"},
	{name: "executor.chq2_us", unit: "us", better: "lower"},
	{name: "executor.chq3_us", unit: "us", better: "lower"},
	{name: "executor.chq4_us", unit: "us", better: "lower"},
	{name: "executor.chq5_us", unit: "us", better: "lower"},
	{name: "executor.hashagg_mrows_s", unit: "Mrows/s", better: "higher"},
	{name: "executor.hashjoin_mrows_s", unit: "Mrows/s", better: "higher"},
	{name: "executor.exchange_wait_us_per_query", unit: "us", better: "lower"},
	{name: "vector.fromrows_mrows_s", unit: "Mrows/s", better: "higher"},
	{name: "vector.pool_gets_per_query", unit: "count", better: "lower"},
	{name: "colindex.build_krows_s", unit: "krows/s", better: "higher"},
	{name: "colindex.bytes_per_row", unit: "B", better: "lower"},
	{name: "colindex.aggscan_mrows_s", unit: "Mrows/s", better: "higher"},
	{name: "colindex.scanbatch_mrows_s", unit: "Mrows/s", better: "higher"},
	{name: "compress.encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "compress.decode_mb_s", unit: "MB/s", better: "higher"},
	{name: "compress.ratio", unit: "ratio", better: "higher"},
	{name: "htap.tp_lat_inflation", unit: "ratio", better: "lower"},
	{name: "htap.ap_slowdown", unit: "ratio", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace_overhead_frac", unit: "frac", better: "lower"},
}

// plannedTraced is the wall time a traced pass should take.
const plannedTraced = 90 * time.Second

// probeRows sizes the sbtest table added to htap_mix's traced cluster,
// which has none: the ladder's probe statement is a point select on it.
const probeRows = 4000

// stream is a workload's statement stream for the traced replay: n
// operations, each a list of statements.
type stream struct {
	n    int
	next func() []string
}

// layerPass is the state of one traced pass.
type layerPass struct {
	e     *env
	p     params
	tr    *tracer
	m     metrics
	table gen.Sbtest       // the ladder's probe table
	pt    *partition.Table // its routing entry
	dns   map[string]*dn.Instance
	probe string // this program's endpoint on the cluster's fabric
	coord *txn.Coordinator
	keys  *gen.ReadGen
	wrong error
}

func (lp *layerPass) set(name string, v float64, n int) {
	for _, def := range perLayer {
		if def.name == name {
			lp.m[name] = metric{Value: v, Unit: def.unit, N: n}
			return
		}
	}
	panic("layer metric " + name + " is not declared in perLayer")
}

func (lp *layerPass) fail(format string, args ...any) {
	if lp.wrong == nil {
		lp.wrong = fmt.Errorf(format, args...)
	}
}

// tracedPass measures the layers of one workload from outside: it builds
// the workload's cluster, replays a fixed number of operations of its
// statement stream single-threaded through the front-door rungs, walks a
// probe statement down the ladder below them, and runs the standalone
// layer measures on the workload's keys and topology.
func tracedPass(name string, p params, wd *watchdog) (runResult, error) {
	wd.enter("traced set-up")
	w, err := newWorkload(name, p)
	if err != nil {
		return runResult{}, err
	}
	e, err := setUp(w)
	if err != nil {
		return runResult{}, err
	}
	defer e.stop()
	lp := &layerPass{e: e, p: p, m: make(metrics), dns: make(map[string]*dn.Instance)}
	if err := lp.attach(); err != nil {
		return runResult{}, err
	}

	wd.enter("traced replay")
	st := w.stream()
	st.n = lp.count(st.n)
	ops, err := lp.replay(st)
	if err != nil {
		return runResult{}, err
	}
	wd.enter("ladder")
	if err := lp.ladder(); err != nil {
		return runResult{}, err
	}
	wd.enter("standalone layers")
	if err := lp.standalone(); err != nil {
		return runResult{}, err
	}
	wd.enter("analytic layers")
	if err := lp.analytic(); err != nil {
		return runResult{}, err
	}
	if err := writeTrace(name, p.seed, lp.tr.spans); err != nil {
		return runResult{}, err
	}
	if lp.wrong == nil {
		lp.wrong = e.violation()
	}
	return runResult{metrics: lp.m, attempted: int64(ops), wrong: lp.wrong}, nil
}

// attach finds (or, for htap_mix, creates) the probe table and registers
// this program as an endpoint beside CN 0, with its own transaction
// coordinator on the cluster's fabric.
func (lp *layerPass) attach() error {
	e := lp.e
	switch w := e.w.(type) {
	case *sbtest:
		lp.table = w.table
	default:
		probe := &sbtest{table: gen.Sbtest{Seed: lp.p.seed, Rows: probeRows}, partitions: 4}
		if err := probe.load(e); err != nil {
			return fmt.Errorf("load probe table: %w", err)
		}
		lp.table = probe.table
	}
	pt, err := e.cluster.GMS.Table(gen.SbtestTable)
	if err != nil {
		return err
	}
	lp.pt = pt
	for g := 0; g < e.w.spec().config.DNGroups; g++ {
		inst, err := e.cluster.DNGroup(fmt.Sprintf("dng%d", g))
		if err != nil {
			return err
		}
		lp.dns[inst.Name()] = inst
	}
	lp.probe = "bench-probe"
	e.cluster.Net.Register(lp.probe, e.cns[0].DC(), func(string, any) (any, error) { return nil, nil })
	lp.coord = txn.NewCoordinator(e.cluster.Net, lp.probe, txn.NewHLCOracle(hlc.NewClock(nil)))
	// Keys of the odd half: the replayed write streams own the even half,
	// so these rows still hold what the generator says.
	lp.keys = gen.NewReadGen(lp.table, lp.p.seed+1, 1)
	return nil
}

// sessionRung issues text on a core.Session the way the wire server
// does, so that the wire rung minus this one is the server, the frame
// codec and the fabric hop.
func sessionRung(s *core.Session, text string) (*core.Result, error) {
	switch text {
	case "BEGIN":
		return nil, s.BeginTxn()
	case "COMMIT":
		return nil, s.Commit()
	}
	return s.Execute(text)
}

// replay runs the workload's stream through the two front-door rungs,
// statement by statement: srv.Conn.Query, then core.Session.Execute on a
// session of the same CN, then sql.Parse and sql.FingerprintSelect on the
// same text. A first, shorter run without span recording gives the
// untraced median for trace_overhead_frac.
func (lp *layerPass) replay(st stream) (int, error) {
	e := lp.e
	conn, sess := e.conns[0], e.cns[0].NewSession()
	net := e.cluster.Net

	untraced := make([]int64, 0, st.n)
	for i := 0; i < st.n/4+1; i++ {
		for _, text := range st.next() {
			start := time.Now()
			if _, err := conn.Query(text); err != nil {
				return 0, fmt.Errorf("replay %q: %w", abbreviate(text), err)
			}
			untraced = append(untraced, int64(time.Since(start)))
		}
	}

	hits0, misses0 := e.cns[0].PlanCacheStats()
	rpcs0, msgs0 := lp.dnRPCs(), lp.messages(net)
	before := readUsage()
	lp.tr = newTracer()
	var texts []string
	for i := 0; i < st.n; i++ {
		stmts := st.next()
		wire := make([]int, len(stmts))
		for j, text := range stmts {
			var err error
			wire[j] = lp.tr.call("srv.query", -1, i, func() { _, err = conn.Query(text) })
			if err != nil {
				return 0, fmt.Errorf("replay %q: %w", abbreviate(text), err)
			}
		}
		for j, text := range stmts {
			var err error
			at := lp.tr.call("core.execute", wire[j], i, func() { _, err = sessionRung(sess, text) })
			if err != nil {
				return 0, fmt.Errorf("replay %q on a session: %w", abbreviate(text), err)
			}
			if text == "BEGIN" || text == "COMMIT" {
				continue
			}
			var stmt sql.Statement
			lp.tr.call("sql.parse", at, i, func() { stmt, err = sql.Parse(text) })
			if err != nil {
				return 0, err
			}
			if sel, ok := stmt.(*sql.Select); ok {
				lp.tr.call("sql.fingerprint", at, i, func() { sql.FingerprintSelect(sel) })
			}
			if len(texts) < 4096 {
				texts = append(texts, text)
			}
		}
	}
	used := readUsage().since(before)
	hits1, misses1 := e.cns[0].PlanCacheStats()
	ops := float64(2 * st.n) // every operation ran on both rungs

	dur, self := durations(lp.tr.spans), selfTimes(lp.tr.spans, 0)
	lp.set("srv.query_self_us", medianUs(self["srv.query"]), len(self["srv.query"]))
	lp.set("sql.parse_us", medianUs(dur["sql.parse"]), len(dur["sql.parse"]))
	if fp := dur["sql.fingerprint"]; len(fp) > 0 {
		lp.set("sql.fingerprint_us", medianUs(fp), len(fp))
	}
	lp.set("trace_overhead_frac", medianUs(dur["srv.query"])/medianUs(untraced)-1, len(untraced))
	if lookups := float64(hits1 - hits0 + misses1 - misses0); lookups > 0 {
		lp.set("optimizer.plancache_hit_frac", float64(hits1-hits0)/lookups, int(lookups))
	}
	lp.set("dn.rpcs_per_op", float64(lp.dnRPCs()-rpcs0)/ops, int(ops))
	lp.set("simnet.msgs_per_op", float64(lp.messages(net)-msgs0)/ops, int(ops))
	lp.set("go.gc_cycles", float64(used.gcCycles), int(ops))
	lp.set("go.gc_pause_ms", float64(used.gcPause)/1e6, int(used.gcCycles))

	// Allocations of the parser alone, over the same statements.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, text := range texts {
		if _, err := sql.Parse(text); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	lp.set("sql.parse_allocs", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(texts)), len(texts))
	return st.n, nil
}

// dnRPCs sums the request counters of the DN leaders.
func (lp *layerPass) dnRPCs() uint64 {
	var total uint64
	for _, inst := range lp.dns {
		a, b, c, d := inst.RPCStats()
		total += a + b + c + d
	}
	return total
}

// messages sums the messages delivered to every endpoint of the fabric.
func (lp *layerPass) messages(net *simnet.Network) int64 {
	var total int64
	for _, ep := range net.Endpoints() {
		total += net.MessageCount(ep)
	}
	return total
}

// route resolves a probe-table key the way the CN does: catalog entry,
// shard of the key, DN of the shard.
func (lp *layerPass) route(pk []byte) (dnName string, phys uint32, err error) {
	t, err := lp.e.cluster.GMS.Table(gen.SbtestTable)
	if err != nil {
		return "", 0, err
	}
	shard := t.ShardOfPK(pk)
	dnName, err = lp.e.cluster.GMS.DNForShard(gen.SbtestTable, shard)
	return dnName, t.PhysicalTableID(shard), err
}

// count is the number of repetitions of a measure that is planned to
// take full of them: a twentieth in the smoke tests.
func (lp *layerPass) count(full int) int {
	if lp.p.small {
		return max(full/20, 3)
	}
	return full
}

// ladderOps is the number of probe statements walked down the ladder;
// a cluster with injected delay walks fewer.
func (lp *layerPass) ladderOps() int {
	if lp.e.w.spec().config.Topology != nil {
		return lp.count(150)
	}
	return lp.count(2000)
}

// ladder walks one probe statement, a point select on sbtest, down the
// rungs below the front door: core.Session.Execute, then its parts
// (parse, fingerprint, plan-cache lookup, routing) and the txn, dn and
// storage rungs, each the parent of the next. (The btree rung is timed in
// bulk with the standalone layers: one call is a few clock reads long.) Beside the
// chain it times the prepared-statement path, a cold plan, a batched
// multi-get and the two commit protocols.
func (lp *layerPass) ladder() error {
	e, tr := lp.e, lp.tr
	net := e.cluster.Net
	sess := e.cns[0].NewSession()
	const probeSQL = "SELECT c FROM sbtest WHERE id = "

	// This program's own optimizer and plan cache over the cluster's
	// catalog, primed with the probe's plan.
	opt := optimizer.New(e.cluster.GMS, nil, optimizer.Options{MPPAvailable: true, BatchAvailable: true})
	cache := optimizer.NewPlanCache(0)
	epoch := e.cluster.GMS.SchemaEpoch()
	parsed, err := sql.Parse(probeSQL + "0")
	if err != nil {
		return err
	}
	fp, params, _ := sql.FingerprintSelect(parsed.(*sql.Select))
	plan, err := opt.PlanSelect(parsed.(*sql.Select))
	if err != nil {
		return err
	}
	cache.Store(fp, epoch, plan, params)

	prepared, err := sess.Prepare(probeSQL + "?")
	if err != nil {
		return err
	}
	wireStmt, err := e.conns[0].Prepare(probeSQL + "?")
	if err != nil {
		return err
	}
	n := lp.ladderOps()
	first := len(tr.spans)
	for i := 0; i < n; i++ {
		id := lp.keys.Key()
		text := probeSQL + fmt.Sprint(id)
		pk := types.EncodeKey(nil, types.Int(id))
		var err error
		var res *core.Result
		top := tr.call("core.execute", -1, i, func() { res, err = sess.Execute(text) })
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 || !lp.table.CheckC(id, res.Rows[0][0].S) {
			lp.fail("ladder: %s returned %v", text, res.Rows)
		}
		var sel *sql.Select
		tr.call("sql.parse", top, i, func() {
			var stmt sql.Statement
			stmt, err = sql.Parse(text)
			sel, _ = stmt.(*sql.Select)
		})
		if err != nil {
			return err
		}
		tr.call("sql.fingerprint", top, i, func() { fp, params, _ = sql.FingerprintSelect(sel) })
		tr.call("optimizer.cache_lookup", top, i, func() { plan = cache.Lookup(fp, epoch, params) })
		if plan == nil {
			return errors.New("ladder: plan-cache lookup missed a primed fingerprint")
		}
		var dnName string
		var phys uint32
		tr.call("gms.route", top, i, func() { dnName, phys, err = lp.route(pk) })
		if err != nil {
			return err
		}

		// The txn rung reads the way the CN's point path does: one
		// MultiGet per DN, which opens the branch implicitly.
		gets := []dn.PointGet{{Table: phys, PK: pk}}
		var rows []dn.ReadResp
		get := tr.call("txn.point_get", top, i, func() {
			var tx *txn.Tx
			if tx, err = lp.coord.Begin(); err == nil {
				if rows, err = tx.MultiGet(dnName, gets); err == nil {
					_, err = tx.Commit()
				}
			}
		})
		if err != nil {
			return err
		}
		if len(rows) != 1 || !rows[0].OK || !lp.table.CheckC(id, rows[0].Row[2].S) {
			lp.fail("ladder: txn read of id %d returned %v", id, rows)
		}

		// The dn rung: the same request, sent by this program. Releasing
		// the branch is outside the span.
		tx, err := lp.coord.Begin()
		if err != nil {
			return err
		}
		rpc := tr.call("dn.read_rpc", get, i, func() {
			_, err = net.Call(lp.probe, dnName, dn.MultiGetReq{TxnID: tx.ID, SnapshotTS: tx.Snapshot, Gets: gets})
		})
		if err != nil {
			return err
		}
		if _, err := net.Call(lp.probe, dnName, dn.AbortReq{TxnID: tx.ID}); err != nil {
			return err
		}

		eng := lp.dns[dnName].Engine()
		var ok bool
		tr.call("storage.get", rpc, i, func() { _, ok, err = eng.GetAt(phys, pk, tx.Snapshot) })
		if err != nil || !ok {
			return fmt.Errorf("ladder: storage.GetAt(id %d): found=%v err=%v", id, ok, err)
		}

		// The prepared path, front door and session.
		arg := types.Int(id)
		exec := tr.call("srv.prepared_exec", -1, i, func() { _, err = wireStmt.Exec(arg) })
		if err != nil {
			return err
		}
		tr.call("core.prepared", exec, i, func() { _, err = prepared.Execute(arg) })
		if err != nil {
			return err
		}
		tr.call("optimizer.plan_cold", -1, i, func() { _, err = opt.PlanSelect(sel) })
		if err != nil {
			return err
		}
	}
	dur, self := durations(tr.spans[first:]), selfTimes(tr.spans[first:], first)
	lp.set("core.execute_us", medianUs(dur["core.execute"]), n)
	lp.set("core.self_us", medianUs(self["core.execute"]), n)
	lp.set("core.prepared_us", medianUs(dur["core.prepared"]), n)
	lp.set("srv.prepared_exec_us", medianUs(self["srv.prepared_exec"]), n)
	lp.set("optimizer.cache_lookup_us", medianUs(dur["optimizer.cache_lookup"]), n)
	lp.set("optimizer.plan_cold_us", medianUs(dur["optimizer.plan_cold"]), n)
	lp.set("gms.route_us", medianUs(dur["gms.route"]), n)
	lp.set("txn.point_get_us", medianUs(dur["txn.point_get"]), n)
	lp.set("dn.read_rpc_us", medianUs(dur["dn.read_rpc"]), n)
	lp.set("storage.get_us", medianUs(dur["storage.get"]), n)
	if _, ok := lp.m["sql.fingerprint_us"]; !ok {
		// A write workload's stream has no SELECT; the probe's stands in.
		lp.set("sql.fingerprint_us", medianUs(dur["sql.fingerprint"]), n)
	}
	if _, ok := lp.m["optimizer.plancache_hit_frac"]; !ok {
		hits, misses := e.cns[0].PlanCacheStats()
		lp.set("optimizer.plancache_hit_frac", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	if err := lp.multiGet(n / 4); err != nil {
		return err
	}
	return lp.commits(n / 4)
}

// multiGet times one batched MultiGetReq of ten keys of one DN.
func (lp *layerPass) multiGet(n int) error {
	net := lp.e.cluster.Net
	const keys = 10
	var perKey []int64
	for i := 0; i < n; i++ {
		// Ten keys that live on the DN of the first.
		var target string
		var gets []dn.PointGet
		for len(gets) < keys {
			pk := types.EncodeKey(nil, types.Int(lp.keys.Key()))
			dnName, phys, err := lp.route(pk)
			if err != nil {
				return err
			}
			if target == "" {
				target = dnName
			}
			if dnName == target {
				gets = append(gets, dn.PointGet{Table: phys, PK: pk})
			}
		}
		tx, err := lp.coord.Begin()
		if err != nil {
			return err
		}
		var reply any
		at := lp.tr.call("dn.multiget", -1, i, func() {
			reply, err = net.Call(lp.probe, target, dn.MultiGetReq{TxnID: tx.ID, SnapshotTS: tx.Snapshot, Gets: gets})
		})
		if err != nil {
			return err
		}
		for _, r := range reply.(dn.MultiGetResp).Results {
			if !r.OK {
				lp.fail("ladder: multi-get missed a loaded key")
			}
		}
		if _, err := net.Call(lp.probe, target, dn.AbortReq{TxnID: tx.ID}); err != nil {
			return err
		}
		s := lp.tr.spans[at]
		perKey = append(perKey, (s.End-s.Start)/keys)
	}
	lp.set("dn.multiget_us_per_key", medianUs(perKey), n)
	return nil
}

// commits times the two commit protocols through this program's own
// coordinator: a single-DN write (one-phase) and a write on two DNs
// (two-phase), each an update of existing probe rows to their own
// values, so the table's contents do not change.
func (lp *layerPass) commits(n int) error {
	net := lp.e.cluster.Net
	write := func(name string, i, dns int) error {
		var items = map[string][]dn.WriteItem{}
		for len(items) < dns {
			id := lp.keys.Key()
			dnName, phys, err := lp.route(types.EncodeKey(nil, types.Int(id)))
			if err != nil {
				return err
			}
			if len(items[dnName]) == 0 {
				items[dnName] = []dn.WriteItem{{Table: phys, Op: dn.OpUpdate, Row: lp.table.Row(id)}}
			}
		}
		var err error
		lp.tr.call(name, -1, i, func() {
			var tx *txn.Tx
			if tx, err = lp.coord.Begin(); err != nil {
				return
			}
			for dnName, writes := range items {
				if err = tx.MultiWrite(dnName, writes); err != nil {
					_ = tx.Abort() // the write's error is the one reported
					return
				}
			}
			_, err = tx.Commit()
		})
		return err
	}
	var tails0 wal.LSN
	for _, inst := range lp.dns {
		tails0 += inst.Paxos().Log().TailLSN()
	}
	first := len(lp.tr.spans)
	for i := 0; i < n; i++ {
		if err := write("txn.commit_1pc", i, 1); err != nil {
			return err
		}
	}
	msgs0 := lp.dnMessages(net)
	for i := 0; i < n; i++ {
		if err := write("txn.write_commit", i, 2); err != nil {
			return err
		}
	}
	// Release messages of read-only branches are sent asynchronously, but
	// these transactions have none: every branch wrote.
	msgs := lp.dnMessages(net) - msgs0
	var tails wal.LSN
	for _, inst := range lp.dns {
		tails += inst.Paxos().Log().TailLSN()
	}
	dur := durations(lp.tr.spans[first:])
	lp.set("txn.commit_1pc_us", medianUs(dur["txn.commit_1pc"]), n)
	lp.set("txn.write_commit_us", medianUs(dur["txn.write_commit"]), n)
	lp.set("txn.rpcs_per_commit", float64(msgs)/float64(n), n)
	lp.set("wal.bytes_per_txn", float64(tails-tails0)/float64(2*n), 2*n)
	return nil
}

// dnMessages counts the messages delivered to the DN leaders.
func (lp *layerPass) dnMessages(net *simnet.Network) int64 {
	var total int64
	for name := range lp.dns {
		total += net.MessageCount(name)
	}
	return total
}

// timeEach runs fn n times and returns each run's duration.
func timeEach(n int, fn func(i int)) []int64 {
	out := make([]int64, n)
	for i := range out {
		start := time.Now()
		fn(i)
		out[i] = int64(time.Since(start))
	}
	return out
}

// perCall times n calls of fn as one block: for calls of tens of
// nanoseconds the clock would otherwise be most of what is measured.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// standalone measures the layers that the ladder cannot reach one call
// at a time, on structures of this program's own, fed the workload's
// keys and rows and placed on the workload's topology.
func (lp *layerPass) standalone() error {
	table := lp.table
	rows := int64(table.Rows)
	clock := hlc.NewClock(nil)

	// btree: insert the table's keys in hash order, as the load does.
	tree := btree.New()
	keys := make([][]byte, rows)
	for id := range keys {
		keys[id] = types.EncodeKey(nil, types.Int(int64(id)*7919%rows))
	}
	lp.set("btree.set_ns", perCall(len(keys), func(i int) { tree.Set(keys[i], i) }), len(keys))
	found := 0
	lp.set("btree.get_ns", perCall(len(keys), func(i int) {
		if _, ok := tree.Get(keys[len(keys)-1-i]); ok {
			found++
		}
	}), len(keys))
	if found != len(keys) {
		lp.fail("btree: found %d of %d keys", found, len(keys))
	}
	lp.set("btree.height", float64(tree.Height()), tree.Len())

	// storage: an engine holding the whole table; then updates and
	// re-inserts of existing ids, one transaction each.
	eng := storage.NewEngine()
	const tableID = 1
	if _, err := eng.CreateTable(tableID, 0, table.Schema()); err != nil {
		return err
	}
	var redo []wal.Record
	for lo := int64(0); lo < rows; lo += sbLoadBatch {
		tx := eng.Begin(clock.Now())
		for id := lo; id < lo+sbLoadBatch && id < rows; id++ {
			if err := eng.Insert(tx, tableID, table.Row(id)); err != nil {
				return err
			}
		}
		if err := eng.Commit(tx, clock.Now()); err != nil {
			return err
		}
		if len(redo) < 20000 {
			redo = append(redo, tx.Redo()...)
		}
	}
	n := lp.count(4000)
	var storeErr error
	note := func(err error) {
		if err != nil && storeErr == nil {
			storeErr = err
		}
	}
	var txs = make([]*storage.Txn, n)
	update := timeEach(n, func(i int) {
		txs[i] = eng.Begin(clock.Now())
		note(eng.Update(txs[i], tableID, table.Row(int64(i))))
	})
	commit := timeEach(n, func(i int) { note(eng.Commit(txs[i], clock.Now())) })
	for i := 0; i < n; i++ { // make room for the inserts
		tx := eng.Begin(clock.Now())
		note(eng.Delete(tx, tableID, keysOf(int64(i))))
		note(eng.Commit(tx, clock.Now()))
	}
	insert := timeEach(n, func(i int) {
		tx := eng.Begin(clock.Now())
		note(eng.Insert(tx, tableID, table.Row(int64(i))))
		txs[i] = tx
	})
	for _, tx := range txs {
		note(eng.Commit(tx, clock.Now()))
	}
	if storeErr != nil {
		return fmt.Errorf("standalone storage: %w", storeErr)
	}
	lp.set("storage.update_us", medianUs(update), n)
	lp.set("storage.commit_us", medianUs(commit), n)
	lp.set("storage.insert_us", medianUs(insert), n)

	// storage scan on the live data: every shard of the probe table, in
	// full, on its DN's engine.
	var scanned int
	start := time.Now()
	for shard := 0; shard < lp.pt.Shards; shard++ {
		dnName, err := lp.e.cluster.GMS.DNForShard(gen.SbtestTable, shard)
		if err != nil {
			return err
		}
		err = lp.dns[dnName].Engine().ScanRangeAt(lp.pt.PhysicalTableID(shard), nil, nil, clock.Now(),
			func([]byte, types.Row) bool { scanned++; return true })
		if err != nil {
			return err
		}
	}
	if scanned != table.Rows {
		lp.fail("storage scan saw %d rows of %d", scanned, table.Rows)
	}
	lp.set("storage.scan_us_per_krow", us(int64(time.Since(start)))/float64(scanned)*1e3, scanned)

	// wal: append the redo of the load one record at a time; frame
	// encoding of a full 16 KB payload of those bytes.
	log := wal.NewLog()
	lp.set("wal.append_mtr_ns", perCall(len(redo), func(i int) { log.AppendMTR(redo[i]) }), len(redo))
	raw, err := log.ReadBytes(log.BaseLSN(), log.TailLSN())
	if err != nil {
		return err
	}
	frame := wal.PaxosFrame{Epoch: 1, EndLSN: wal.MaxFramePayload, Payload: raw[:wal.MaxFramePayload]}
	encode := timeEach(lp.count(2000), func(i int) {
		if _, err := frame.Encode(); err != nil {
			storeErr = err
		}
	})
	if storeErr != nil {
		return storeErr
	}
	lp.set("wal.frame_encode_us", medianUs(encode), len(encode))

	// compress: the block codec over the same redo bytes, in the 64 KB
	// windows the log shipper hands it.
	const window = 64 << 10
	var in, out int
	var enc, dec time.Duration
	for off := 0; off+window <= len(raw) && off < 64*window; off += window {
		t0 := time.Now()
		block := compress.Encode(nil, raw[off:off+window])
		t1 := time.Now()
		back, err := compress.Decode(nil, block)
		dec += time.Since(t1)
		enc += t1.Sub(t0)
		if err != nil || len(back) != window {
			return fmt.Errorf("compress round trip: %d bytes back, err %v", len(back), err)
		}
		in, out = in+window, out+len(block)
	}
	lp.set("compress.encode_mb_s", float64(in)/(1<<20)/enc.Seconds(), in/window)
	lp.set("compress.decode_mb_s", float64(in)/(1<<20)/dec.Seconds(), in/window)
	lp.set("compress.ratio", float64(in)/float64(out), in/window)

	lp.set("hlc.now_ns", perCall(1<<18, func(int) { clock.Now() }), 1<<18)
	if err := lp.fabric(); err != nil {
		return err
	}
	return lp.paxosGroup()
}

func keysOf(id int64) []byte { return types.EncodeKey(nil, types.Int(id)) }

// fabric measures the simulated network on the workload's topology: a
// call to a no-op endpoint, within a DC and between two.
func (lp *layerPass) fabric() error {
	topo := simnet.ZeroTopology()
	if t := lp.e.w.spec().config.Topology; t != nil {
		topo = *t
	}
	net := simnet.New(topo)
	noop := func(string, any) (any, error) { return nil, nil }
	net.Register("a", simnet.DC1, noop)
	net.Register("b", simnet.DC1, noop)
	net.Register("c", simnet.DC2, noop)
	n := lp.count(20000)
	if topo.InterDCRTT > 0 {
		n = lp.count(300)
	}
	var callErr error
	rtt := func(to string) []int64 {
		return timeEach(n, func(int) {
			if _, err := net.Call("a", to, nil); err != nil {
				callErr = err
			}
		})
	}
	intra, inter := rtt("b"), rtt("c")
	if callErr != nil {
		return callErr
	}
	lp.set("simnet.rtt_intra_us", medianUs(intra), n)
	lp.set("simnet.rtt_inter_us", medianUs(inter), n)
	// What the fabric itself costs: the measured intra-DC round trip less
	// the delay the topology injects.
	lp.set("simnet.call_overhead_us", medianUs(intra)-us(int64(topo.RTT(simnet.DC1, simnet.DC1))), n)
	return nil
}

// paxosGroup measures a replication group of the workload's shape, one
// node or one per DC on the workload's topology, under two concurrent
// proposers (the load shape of the workloads).
func (lp *layerPass) paxosGroup() error {
	cfg := lp.e.w.spec().config
	topo := simnet.ZeroTopology()
	if cfg.Topology != nil {
		topo = *cfg.Topology
	}
	members := []paxos.Member{{Name: "n1", DC: simnet.DC1}}
	if cfg.MultiDC {
		members = members[:0]
		for d := 0; d < cfg.DCs; d++ {
			members = append(members, paxos.Member{Name: fmt.Sprintf("n%d", d+1), DC: simnet.DC(d)})
		}
	}
	net := simnet.New(topo)
	reg := obs.NewRegistry()
	var nodes []*paxos.Node
	for i, m := range members {
		pc := paxos.Config{Group: "g", Self: m.Name, Members: members, Net: net,
			HeartbeatEvery: 2 * time.Millisecond, ElectionTimeout: 5 * time.Second,
			Pipelined: true, GroupCommitWindow: dn.DefaultGroupCommitWindow, Seed: lp.p.seed}
		if i == 0 {
			pc.Metrics = reg
		}
		node, err := paxos.NewNode(pc)
		if err != nil {
			return err
		}
		nodes = append(nodes, node)
	}
	nodes[0].Bootstrap()
	for _, node := range nodes {
		node.Start()
	}
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()
	leader := nodes[0]
	record := func(c, i int) wal.Record {
		id := int64(2*i + c)
		return wal.Record{Type: wal.RecUpdate, TableID: 1, TxnID: uint64(id), Key: keysOf(id),
			Payload: types.EncodeRow(nil, lp.table.Row(id%int64(lp.table.Rows)))}
	}
	if _, err := leader.ProposeAndWait(record(0, 0)); err != nil {
		return fmt.Errorf("paxos warm-up: %w", err)
	}
	n := lp.count(2000)
	if cfg.MultiDC {
		n = lp.count(300)
	}
	base := leader.MetricsSnapshot()
	waits := make([][]int64, numConns)
	errs := make([]error, numConns)
	var wg sync.WaitGroup
	for c := range waits {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			waits[c] = timeEach(n, func(i int) {
				if _, err := leader.ProposeAndWait(record(c, i+1)); err != nil {
					errs[c] = err
				}
			})
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("paxos propose: %w", err)
		}
	}
	m := leader.MetricsSnapshot()
	commits := float64(numConns * n)
	all := append(waits[0], waits[1]...)
	lp.set("paxos.propose_wait_us", medianUs(all), len(all))
	lp.set("paxos.flushes_per_commit", float64(m.Flushes-base.Flushes)/commits, int(commits))
	lp.set("paxos.group_size_mean", float64(m.GroupedMTRs-base.GroupedMTRs)/float64(m.Flushes-base.Flushes), int(m.Flushes-base.Flushes))
	lp.set("paxos.wire_bytes_per_commit", float64(m.BytesShippedWire-base.BytesShippedWire)/commits, int(commits))
	ratio := 1.0
	if wire := m.BytesShippedWire - base.BytesShippedWire; wire > 0 {
		ratio = float64(m.BytesShippedRaw-base.BytesShippedRaw) / float64(wire)
	}
	lp.set("paxos.compress_ratio", ratio, int(commits))
	return nil
}

// analytic measures the layers behind the analytic queries. They need
// the TPC-C tables: htap_mix's own cluster has them, the other workloads
// build htap_mix's cluster on the side.
func (lp *layerPass) analytic() error {
	e := lp.e
	mix, ok := e.w.(*htapMix)
	if !ok {
		mix = newHTAPMix(lp.p)
		side, err := setUp(mix)
		if err != nil {
			return fmt.Errorf("side cluster for the analytic layers: %w", err)
		}
		defer side.stop()
		e = side
	}
	sess := e.cns[1].NewSession()

	// Each analytic query alone, no TP beside it.
	sweeps := lp.count(40)
	per := make([][]int64, len(gen.CHQueries))
	_, waited0 := executor.ExchangeWaitStats()
	gets0, _, _ := vector.PoolStats()
	sweepAlone := timeEach(sweeps, func(int) {
		for q, text := range gen.CHQueries {
			start := time.Now()
			if _, err := sess.Execute(text); err != nil {
				lp.fail("analytic: %s: %v", text, err)
			}
			per[q] = append(per[q], int64(time.Since(start)))
		}
	})
	_, waited1 := executor.ExchangeWaitStats()
	gets1, _, _ := vector.PoolStats()
	queries := float64(sweeps * len(gen.CHQueries))
	for q := range per {
		lp.set(fmt.Sprintf("executor.chq%d_us", q+1), medianUs(per[q]), sweeps)
	}
	lp.set("executor.exchange_wait_us_per_query", us(int64(waited1-waited0))/queries, int(queries))
	lp.set("vector.pool_gets_per_query", float64(gets1-gets0)/queries, int(queries))

	// TP alone, then both sides together, on the timed pass's clients.
	clients := mix.clients(e)
	phase := time.Duration(lp.count(3000)) * time.Millisecond
	alone := newRecorders(1, 1024)
	runClients(clients[:1], alone, phase)
	both := newRecorders(2, 1024)
	runClients(clients, both, phase)
	sortInt64(alone[0].lat)
	sortInt64(both[0].lat)
	if len(alone[0].lat) == 0 || len(both[0].lat) == 0 || len(both[1].lat) < len(gen.CHQueries) {
		return errors.New("analytic: a side of the isolation measurement completed nothing")
	}
	lp.set("htap.tp_lat_inflation", float64(percentile(both[0].lat, 0.5))/float64(percentile(alone[0].lat, 0.5)), len(both[0].lat))
	var mixedSweep float64 // mean time of five consecutive queries beside TP
	for _, ns := range both[1].lat {
		mixedSweep += float64(ns)
	}
	mixedSweep = mixedSweep / float64(len(both[1].lat)) * float64(len(gen.CHQueries))
	lp.set("htap.ap_slowdown", mixedSweep/(medianUs(sweepAlone)*1e3), len(both[1].lat))
	if err := e.violation(); err != nil {
		lp.fail("analytic: %v", err)
	}

	return lp.operators(mix.data, lp.count(20))
}

// operators measures the batch operators, columnarization and the column
// index on the generated order_line and orders rows.
func (lp *layerPass) operators(data gen.TPCC, reps int) error {
	var lines, orders []types.Row
	for _, t := range data.Tables() {
		switch t.Name {
		case "order_line":
			lines = t.Rows
		case "orders":
			orders = t.Rows
		}
	}
	col := func(i int) sql.Expr { return &sql.ColumnRef{Column: fmt.Sprintf("c%d", i), Index: i} }
	drain := func(op executor.BatchOperator) (int, error) {
		if err := op.Open(); err != nil {
			return 0, err
		}
		defer op.Close()
		rows := 0
		for {
			b, err := op.NextBatch()
			if errors.Is(err, executor.ErrEOF) {
				return rows, nil
			}
			if err != nil {
				return 0, err
			}
			rows += b.NumRows()
			b.Release()
		}
	}
	var opErr error
	ncols := len(lines[0])
	mrows := func(rows int, ns []int64) float64 { return float64(rows) / medianUs(ns) }

	columnar := timeEach(reps, func(int) {
		for _, b := range executor.BatchesFromRows(lines, ncols) {
			b.Release()
		}
	})
	lp.set("vector.fromrows_mrows_s", mrows(len(lines), columnar), reps)

	agg := timeEach(reps, func(int) {
		groups, err := drain(&executor.BatchHashAgg{
			Input:   &executor.BatchesSource{Cols: make([]string, ncols), Batches: executor.BatchesFromRows(lines, ncols)},
			GroupBy: []sql.Expr{col(gen.OLNumber)},
			Aggs:    []executor.AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: col(gen.OLAmount)}},
			Mode:    executor.AggComplete})
		if err != nil || groups == 0 {
			opErr = fmt.Errorf("hash aggregate: %d groups, err %v", groups, err)
		}
	})
	lp.set("executor.hashagg_mrows_s", mrows(len(lines), agg), reps)

	join := timeEach(reps, func(int) {
		matched, err := drain(&executor.BatchHashJoin{
			Left:     &executor.BatchesSource{Cols: make([]string, ncols), Batches: executor.BatchesFromRows(lines, ncols)},
			Right:    &executor.BatchesSource{Cols: make([]string, len(orders[0])), Batches: executor.BatchesFromRows(orders, len(orders[0]))},
			LeftKeys: []sql.Expr{col(1)}, RightKeys: []sql.Expr{col(0)}})
		if err != nil || matched != len(lines) {
			opErr = fmt.Errorf("hash join: %d rows of %d, err %v", matched, len(lines), err)
		}
	})
	lp.set("executor.hashjoin_mrows_s", mrows(len(lines), join), reps)
	if opErr != nil {
		return opErr
	}

	// colindex: build from the redo of loading order_line into a
	// standalone engine, then the Q6-like filter through both scan forms.
	schema := gen.OrderLineSchema()
	eng := storage.NewEngine()
	const tableID = 7
	if _, err := eng.CreateTable(tableID, 0, schema); err != nil {
		return err
	}
	clock := hlc.NewClock(nil)
	var redo []wal.Record
	for lo := 0; lo < len(lines); lo += sbLoadBatch {
		tx := eng.Begin(clock.Now())
		for _, row := range lines[lo:min(lo+sbLoadBatch, len(lines))] {
			if err := eng.Insert(tx, tableID, row); err != nil {
				return err
			}
		}
		if err := eng.Commit(tx, clock.Now()); err != nil {
			return err
		}
		redo = append(redo, tx.Redo()...)
	}
	ix := colindex.New(tableID, schema)
	builder := colindex.NewBuilder(ix)
	start := time.Now()
	if err := builder.Apply(redo); err != nil {
		return err
	}
	if err := ix.Flush(); err != nil {
		return err
	}
	built := time.Since(start)
	if ix.Rows() != len(lines) {
		return fmt.Errorf("column index holds %d rows of %d", ix.Rows(), len(lines))
	}
	lp.set("colindex.build_krows_s", float64(len(lines))/1e3/built.Seconds(), len(lines))
	lp.set("colindex.bytes_per_row", float64(ix.FootprintBytes())/float64(len(lines)), len(lines))

	var want float64
	for _, row := range lines {
		if q := row[gen.OLQuantity].I; q >= gen.Q6Lo && q <= gen.Q6Hi {
			want += row[gen.OLAmount].F
		}
	}
	filter := &sql.Between{E: &sql.ColumnRef{Column: "ol_quantity", Index: gen.OLQuantity},
		Lo: &sql.Literal{Val: types.Int(gen.Q6Lo)}, Hi: &sql.Literal{Val: types.Int(gen.Q6Hi)}}
	snapshot := clock.Now()
	aggScan := timeEach(reps, func(int) {
		out, err := ix.AggScan(snapshot, filter, nil, []colindex.AggSpec{{Func: "SUM", Col: gen.OLAmount}})
		if err != nil || len(out) != 1 || !closeTo(out[0][0].AsFloat(), want) {
			opErr = fmt.Errorf("colindex.AggScan: %v, want %v, err %v", out, want, err)
		}
	})
	lp.set("colindex.aggscan_mrows_s", mrows(len(lines), aggScan), reps)
	scanBatch := timeEach(reps, func(int) {
		b, err := ix.ScanBatch(snapshot, filter, []int{gen.OLAmount}, 0)
		if err != nil {
			opErr = err
			return
		}
		var got float64
		for _, row := range b.AppendRows(nil) {
			got += row[0].AsFloat()
		}
		b.Release()
		if !closeTo(got, want) {
			opErr = fmt.Errorf("colindex.ScanBatch sums to %v, want %v", got, want)
		}
	})
	lp.set("colindex.scanbatch_mrows_s", mrows(len(lines), scanBatch), reps)
	return opErr
}

func closeTo(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*want+1e-6
}

// --- the workloads' statement streams ---------------------------------------

// Planned operation counts of the traced replay.
const (
	traceReadOps    = 20000
	traceWriteOps   = 2000
	traceXDCOps     = 300
	traceHTAPSweeps = 200
)

func (w *sbtest) stream() stream {
	if !w.write {
		g := gen.NewReadGen(w.table, w.seed, 0)
		one := make([]string, 1)
		return stream{n: traceReadOps, next: func() []string {
			one[0] = g.Next().SQL
			return one
		}}
	}
	n := traceWriteOps
	if w.sp.config.MultiDC {
		n = traceXDCOps
	}
	g := gen.NewWriteGen(w.table, w.seed, 0)
	txn := make([]string, 6)
	txn[0], txn[5] = "BEGIN", "COMMIT"
	return stream{n: n, next: func() []string {
		copy(txn[1:], g.Next().Stmts[:])
		return txn
	}}
}

func (w *htapMix) stream() stream {
	return stream{n: traceHTAPSweeps, next: func() []string { return gen.CHQueries[:] }}
}
