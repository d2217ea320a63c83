package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/benchmark/gen"
	"repro/internal/core"
	"repro/internal/htap"
	"repro/internal/srv"
	"repro/internal/workload/tpcc"
)

// tpRate is the fixed open-loop rate of htap_mix's TPC-C connection,
// about half of what the connection sustains closed-loop beside the
// analytic sweep. Fixed, so that the data grows identically on every
// commit and a TP speed-up cannot show up as an AP slow-down.
const tpRate = 50

// htapMix runs the TPC-C mix beside analytic queries over the tables it
// writes: writes beside reads on the same storage tables and htap
// scheduler, with executor and vector doing most of the work behind the
// analytic side and none in the other three workloads.
type htapMix struct {
	sp   spec
	data gen.TPCC
	seed int64
}

func newHTAPMix(p params) *htapMix {
	data := gen.TPCC{Seed: p.seed, Warehouses: 2, CustomersPerDist: 30, Items: 1000, InitialOrders: 150, Partitions: 4}
	if p.small {
		data.CustomersPerDist, data.InitialOrders = 10, 30
	}
	return &htapMix{
		sp: spec{
			name: "htap_mix",
			loop: fmt.Sprintf("connection 1: full TPC-C mix as text, open loop at a fixed %d txn/s, latency timed from the "+
				"due instant; connection 2: five analytic queries in fixed order, closed loop", tpRate),
			topology: fmt.Sprintf("1 DC, 2 CNs, 2 DN groups, ZeroTopology (no injected delay), isolation on, AP on the RW leaders; "+
				"TPC-C %d warehouses, %d customers/district, %d items, %d initial orders/district",
				data.Warehouses, data.CustomersPerDist, data.Items, data.InitialOrders),
			config: core.Config{DCs: 1, CNsPerDC: 2, DNGroups: 2, TPCostThreshold: 2000,
				SchedulerCfg: htap.Config{APSliceRate: 1500, APWorkers: 16}},
			clientDC: sameDC,
		},
		data: data, seed: p.seed,
	}
}

func (w *htapMix) spec() spec { return w.sp }

func (w *htapMix) load(e *env) error {
	for _, ddl := range w.data.DDL() {
		if _, err := e.query(0, ddl); err != nil {
			return err
		}
	}
	var stmts []string
	for _, table := range w.data.Tables() {
		stmts = append(stmts, table.InsertSQL()...)
	}
	if err := e.loadStatements(stmts); err != nil {
		return err
	}
	// The analytic side must be what it claims: all five statements
	// classified AP, planned as MPP fragments, run by the batch engine.
	for _, q := range gen.CHQueries {
		res, err := e.query(1, "EXPLAIN "+q)
		if err != nil {
			return err
		}
		head := res.Rows[0][0].AsString()
		for _, want := range []string{"class=AP", "mpp=true", "exec=batch"} {
			if !strings.Contains(head, want) {
				return fmt.Errorf("%q plans as %q, want %s", q, head, want)
			}
		}
	}
	return nil
}

// tpccDeck deals the TPC-C transaction profiles in the standard 45/43/4/4/4
// proportions from shuffled decks of 100 cards (the specification's own
// device, clause 5.2.4.2), so that every run carries the same mix. Drawn
// independently, the share of the cheap Payment profile would wander by
// a few percent between runs, and the median transaction latency, which
// sits where Payment ends and New-Order begins, with it.
type tpccDeck struct {
	driver *tpcc.Driver
	rng    *rand.Rand
	cards  []int
	next   int
}

func newTPCCDeck(driver *tpcc.Driver, seed int64) *tpccDeck {
	d := &tpccDeck{driver: driver, rng: rand.New(rand.NewSource(seed + 23))}
	for profile, n := range []int{45, 43, 4, 4, 4} {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, profile)
		}
	}
	d.next = len(d.cards)
	return d
}

// run executes the next transaction of the deck.
func (d *tpccDeck) run() error {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	card := d.cards[d.next]
	d.next++
	switch card {
	case 0:
		// One New-Order in a hundred names an invalid item and rolls back,
		// by specification: that is a completed transaction.
		if err := d.driver.NewOrder(); err != nil && !errors.Is(err, tpcc.ErrInvalidItem) {
			return err
		}
		return nil
	case 1:
		return d.driver.Payment()
	case 2:
		return d.driver.OrderStatus()
	case 3:
		return d.driver.Delivery()
	default:
		return d.driver.StockLevel()
	}
}

func (w *htapMix) clients(e *env) []client {
	deck := newTPCCDeck(tpcc.NewDriver(&srv.WorkloadSession{C: e.conns[0]}, w.data.Config(), w.seed), w.seed)
	next := 0
	return []client{
		{rate: tpRate, op: deck.run},
		{analytic: true, op: func() error {
			q := next % len(gen.CHQueries)
			next++
			res, err := e.conns[1].Query(gen.CHQueries[q])
			if err != nil {
				return err
			}
			if msg := checkCH(q, res); msg != "" {
				e.violate("%s: %s", gen.CHQueries[q], msg)
			}
			return nil
		}},
	}
}

// checkCH checks the shape of an analytic result while TP is writing;
// the exact answer is checked once the load has quiesced (verify).
func checkCH(q int, res *srv.Result) string {
	n := len(res.Rows)
	switch gen.CHQueries[q] {
	case gen.CHQ1: // one group per order-line number, New-Order writes 5..15 lines
		if n < 10 || n > 15 {
			return fmt.Sprintf("%d groups, want 10..15", n)
		}
	case gen.CHJoin: // one group per order size
		if n < 6 || n > 11 {
			return fmt.Sprintf("%d groups, want 6..11", n)
		}
	case gen.CHTopTen:
		if n != 10 {
			return fmt.Sprintf("%d rows, want 10", n)
		}
		for i := 1; i < n; i++ {
			if res.Rows[i][1].AsFloat() > res.Rows[i-1][1].AsFloat() {
				return "rows not in descending amount order"
			}
		}
	default:
		if n != 1 {
			return fmt.Sprintf("%d rows, want 1", n)
		}
	}
	return ""
}

// verify checks, with the load stopped, two TPC-C consistency conditions
// and that the analytic path and the transactional path agree on the
// Q6-like sum.
func (w *htapMix) verify(e *env, failed int64) error {
	next := make(map[int64]int64) // district key -> d_next_o_id
	res, err := e.query(0, "SELECT d_key, d_next_o_id FROM district")
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		next[row[0].AsInt()] = row[1].AsInt()
	}
	if len(next) != w.data.Districts() {
		return fmt.Errorf("district has %d rows, want %d", len(next), w.data.Districts())
	}
	res, err = e.query(0, "SELECT o_w_id, o_d_id, MAX(o_id) FROM orders GROUP BY o_w_id, o_d_id")
	if err != nil {
		return err
	}
	if len(res.Rows) != len(next) {
		return fmt.Errorf("orders span %d districts, want %d", len(res.Rows), len(next))
	}
	for _, row := range res.Rows {
		d := gen.DistrictKey(int(row[0].AsInt()), int(row[1].AsInt()))
		if maxO := row[2].AsInt(); next[d]-1 != maxO {
			return fmt.Errorf("district %d: d_next_o_id-1 = %d but MAX(o_id) = %d", d, next[d]-1, maxO)
		}
	}
	lines, err := e.scalar("SELECT COUNT(*) FROM order_line")
	if err != nil {
		return err
	}
	cnt, err := e.scalar("SELECT SUM(o_ol_cnt) FROM orders")
	if err != nil {
		return err
	}
	if lines.AsInt() != cnt.AsInt() {
		return fmt.Errorf("COUNT(order_line) = %d but SUM(o_ol_cnt) = %d", lines.AsInt(), cnt.AsInt())
	}

	// The Q6-like answer from the analytic path against a recomputation
	// over TP-class point reads: every possible order-line key of six
	// orders per statement. (A PK range would not do: without a range
	// access path it is planned as the same AP scan being checked.)
	ap, err := e.scalar(gen.CHQ6)
	if err != nil {
		return err
	}
	var tp float64
	const ordersPerRead = 6
	checkedPlan := false
	for w0 := 0; w0 < w.data.Warehouses; w0++ {
		for d := 0; d < tpcc.DistrictsPerWarehouse; d++ {
			top := int(next[gen.DistrictKey(w0, d)])
			for o := 0; o < top; o += ordersPerRead {
				q := []byte("SELECT ol_quantity, ol_amount FROM order_line WHERE ol_key IN (")
				for i := o; i < o+ordersPerRead && i < top; i++ {
					for n := 0; n < gen.MaxOrderLines; n++ {
						q = strconv.AppendInt(q, gen.OrderLineKey(gen.OrderKey(w0, d, i), n), 10)
						q = append(q, ',')
					}
				}
				q[len(q)-1] = ')'
				if !checkedPlan {
					checkedPlan = true
					plan, err := e.query(0, "EXPLAIN "+string(q))
					if err != nil {
						return err
					}
					if head := plan.Rows[0][0].AsString(); !strings.Contains(head, "class=TP") {
						return fmt.Errorf("recomputation read plans as %q, want class=TP", head)
					}
				}
				res, err := e.query(0, string(q))
				if err != nil {
					return err
				}
				for _, row := range res.Rows {
					if qty := row[0].AsInt(); qty >= gen.Q6Lo && qty <= gen.Q6Hi {
						tp += row[1].AsFloat()
					}
				}
			}
		}
	}
	if diff := math.Abs(ap.AsFloat() - tp); diff > 1e-9*math.Abs(tp)+1e-6 {
		return fmt.Errorf("Q6-like sum: analytic path %v, transactional path %v", ap.AsFloat(), tp)
	}
	return nil
}
