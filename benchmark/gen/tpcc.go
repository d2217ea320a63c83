package gen

import (
	"math/rand"
	"strconv"

	"repro/internal/types"
	"repro/internal/workload/tpcc"
)

// TPCC sizes the TPC-C data set of htap_mix. The key encodings are the
// ones internal/workload/tpcc's driver computes (its helpers are not
// exported): composite keys folded into single BIGINTs.
type TPCC struct {
	Seed             int64
	Warehouses       int
	CustomersPerDist int
	Items            int
	InitialOrders    int
	Partitions       int
}

// Config is the matching configuration of the TPC-C transaction driver.
func (t TPCC) Config() tpcc.Config {
	return tpcc.Config{Warehouses: t.Warehouses, CustomersPerDist: t.CustomersPerDist,
		Items: t.Items, InitialOrders: t.InitialOrders, Partitions: t.Partitions, Seed: t.Seed}
}

const districts = tpcc.DistrictsPerWarehouse

// Key encodings (see internal/workload/tpcc).
func DistrictKey(w, d int) int64    { return int64(w)*districts + int64(d) }
func customerKey(w, d, c int) int64 { return DistrictKey(w, d)*100000 + int64(c) }
func stockKey(w, i int) int64       { return int64(w)*1000000 + int64(i) }
func OrderKey(w, d, o int) int64    { return DistrictKey(w, d)*10000000 + int64(o) }
func OrderLineKey(o int64, n int) int64 {
	return o*20 + int64(n)
}

// MaxOrderLines bounds an order's line count: the loader writes 5..10
// lines per order, the New-Order transaction 5..15.
const MaxOrderLines = 15

// Districts is the number of (warehouse, district) pairs.
func (t TPCC) Districts() int { return t.Warehouses * districts }

// DDL returns the nine CREATE TABLE statements, all in one table group.
func (t TPCC) DDL() []string {
	p := " PARTITIONS " + strconv.Itoa(t.Partitions) + " TABLEGROUP tpcc"
	return []string{
		`CREATE TABLE warehouse (w_id BIGINT, w_name VARCHAR(10), w_ytd DOUBLE, PRIMARY KEY(w_id))` + p,
		`CREATE TABLE district (d_key BIGINT, d_w_id BIGINT, d_id BIGINT, d_name VARCHAR(10), d_ytd DOUBLE, d_next_o_id BIGINT, PRIMARY KEY(d_key))` + p,
		`CREATE TABLE customer (c_key BIGINT, c_w_id BIGINT, c_d_id BIGINT, c_id BIGINT, c_name VARCHAR(16), c_balance DOUBLE, c_ytd_payment DOUBLE, c_payment_cnt BIGINT, c_delivery_cnt BIGINT, PRIMARY KEY(c_key))` + p,
		`CREATE TABLE history (h_c_key BIGINT, h_amount DOUBLE, h_date BIGINT)` + p,
		`CREATE TABLE orders (o_key BIGINT, o_w_id BIGINT, o_d_id BIGINT, o_id BIGINT, o_c_id BIGINT, o_carrier_id BIGINT, o_ol_cnt BIGINT, o_entry_d BIGINT, PRIMARY KEY(o_key))` + p,
		`CREATE TABLE new_order (no_o_key BIGINT, PRIMARY KEY(no_o_key))` + p,
		`CREATE TABLE order_line (ol_key BIGINT, ol_o_key BIGINT, ol_number BIGINT, ol_i_id BIGINT, ol_quantity BIGINT, ol_amount DOUBLE, ol_delivery_d BIGINT, PRIMARY KEY(ol_key))` + p,
		`CREATE TABLE item (i_id BIGINT, i_name VARCHAR(24), i_price DOUBLE, PRIMARY KEY(i_id))` + p,
		`CREATE TABLE stock (s_key BIGINT, s_w_id BIGINT, s_i_id BIGINT, s_quantity BIGINT, s_ytd BIGINT, s_order_cnt BIGINT, PRIMARY KEY(s_key))` + p,
	}
}

// OrderLineSchema is order_line's schema, for the layer pass's
// standalone engines and column index.
func OrderLineSchema() *types.Schema {
	cols := []types.Column{
		{Name: "ol_key", Kind: types.KindInt}, {Name: "ol_o_key", Kind: types.KindInt},
		{Name: "ol_number", Kind: types.KindInt}, {Name: "ol_i_id", Kind: types.KindInt},
		{Name: "ol_quantity", Kind: types.KindInt}, {Name: "ol_amount", Kind: types.KindFloat},
		{Name: "ol_delivery_d", Kind: types.KindInt},
	}
	return types.NewSchema("order_line", cols, []int{0})
}

// Order-line column positions used by the layer pass.
const (
	OLNumber   = 2
	OLItem     = 3
	OLQuantity = 4
	OLAmount   = 5
)

// TableRows is one table's initial contents.
type TableRows struct {
	Name, Columns string
	Rows          []types.Row
}

// money is a DOUBLE with two decimals, exactly as the SQL text of the
// load carries it.
func money(x float64) types.Value {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 2, 64), 64)
	return types.Float(v)
}

// Tables generates the initial database. As in the TPC-C specification's
// shape, the most recent third of each district's orders are undelivered
// (listed in new_order).
func (t TPCC) Tables() []TableRows {
	rng := rand.New(rand.NewSource(t.Seed + 11))
	I, S := types.Int, types.Str
	item := TableRows{Name: "item", Columns: "(i_id, i_name, i_price)"}
	for i := 0; i < t.Items; i++ {
		item.Rows = append(item.Rows, types.Row{I(int64(i)), S("item-" + strconv.Itoa(i)), money(1 + rng.Float64()*99)})
	}
	warehouse := TableRows{Name: "warehouse", Columns: "(w_id, w_name, w_ytd)"}
	stock := TableRows{Name: "stock", Columns: "(s_key, s_w_id, s_i_id, s_quantity, s_ytd, s_order_cnt)"}
	district := TableRows{Name: "district", Columns: "(d_key, d_w_id, d_id, d_name, d_ytd, d_next_o_id)"}
	customer := TableRows{Name: "customer",
		Columns: "(c_key, c_w_id, c_d_id, c_id, c_name, c_balance, c_ytd_payment, c_payment_cnt, c_delivery_cnt)"}
	orders := TableRows{Name: "orders",
		Columns: "(o_key, o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt, o_entry_d)"}
	newOrder := TableRows{Name: "new_order", Columns: "(no_o_key)"}
	orderLine := TableRows{Name: "order_line",
		Columns: "(ol_key, ol_o_key, ol_number, ol_i_id, ol_quantity, ol_amount, ol_delivery_d)"}
	for w := 0; w < t.Warehouses; w++ {
		wi := int64(w)
		warehouse.Rows = append(warehouse.Rows, types.Row{I(wi), S("wh-" + strconv.Itoa(w)), types.Float(0)})
		for i := 0; i < t.Items; i++ {
			stock.Rows = append(stock.Rows, types.Row{I(stockKey(w, i)), I(wi), I(int64(i)),
				I(int64(50 + rng.Intn(50))), I(0), I(0)})
		}
		for d := 0; d < districts; d++ {
			di := int64(d)
			district.Rows = append(district.Rows, types.Row{I(DistrictKey(w, d)), I(wi), I(di),
				S("d-" + strconv.Itoa(w) + "-" + strconv.Itoa(d)), types.Float(0), I(int64(t.InitialOrders))})
			for c := 0; c < t.CustomersPerDist; c++ {
				customer.Rows = append(customer.Rows, types.Row{I(customerKey(w, d, c)), I(wi), I(di), I(int64(c)),
					S("cust-" + strconv.Itoa(c)), types.Float(-10), types.Float(10), I(1), I(0)})
			}
			for o := 0; o < t.InitialOrders; o++ {
				ok := OrderKey(w, d, o)
				lines := 5 + rng.Intn(6)
				orders.Rows = append(orders.Rows, types.Row{I(ok), I(wi), I(di), I(int64(o)),
					I(int64(rng.Intn(t.CustomersPerDist))), I(int64(rng.Intn(10))), I(int64(lines)), I(0)})
				for n := 0; n < lines; n++ {
					orderLine.Rows = append(orderLine.Rows, types.Row{I(OrderLineKey(ok, n)), I(ok), I(int64(n)),
						I(int64(rng.Intn(t.Items))), I(int64(1 + rng.Intn(10))), money(rng.Float64() * 100), I(0)})
				}
				if o >= t.InitialOrders*2/3 {
					newOrder.Rows = append(newOrder.Rows, types.Row{I(ok)})
				}
			}
		}
	}
	return []TableRows{item, warehouse, stock, district, customer, orders, newOrder, orderLine}
}

// insertBatch is the number of rows per generated INSERT statement; small
// because the lexer's cost grows with the square of the statement length.
const insertBatch = 50

// InsertSQL renders the table's rows as multi-row INSERT statements.
func (tr TableRows) InsertSQL() []string {
	var out []string
	for lo := 0; lo < len(tr.Rows); lo += insertBatch {
		hi := lo + insertBatch
		if hi > len(tr.Rows) {
			hi = len(tr.Rows)
		}
		b := append([]byte("INSERT INTO "), tr.Name...)
		b = append(b, ' ')
		b = append(b, tr.Columns...)
		b = append(b, " VALUES "...)
		for i, row := range tr.Rows[lo:hi] {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, '(')
			for j, v := range row {
				if j > 0 {
					b = append(b, ", "...)
				}
				switch v.K {
				case types.KindInt:
					b = strconv.AppendInt(b, v.I, 10)
				case types.KindFloat:
					b = strconv.AppendFloat(b, v.F, 'f', 2, 64)
				default:
					b = append(b, '\'')
					b = append(b, v.S...)
					b = append(b, '\'')
				}
			}
			b = append(b, ')')
		}
		out = append(out, string(b))
	}
	return out
}

// CH-benCHmark-style analytic statements over the TPC-C tables, run in
// this order by htap_mix's analytic connection.
const (
	// Q6Lo and Q6Hi bound the quantity filter of CHQ6.
	Q6Lo, Q6Hi = 2, 8

	CHQ1     = "SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), AVG(ol_quantity), COUNT(*) FROM order_line GROUP BY ol_number ORDER BY ol_number"
	CHQ6     = "SELECT SUM(ol_amount) FROM order_line WHERE ol_quantity BETWEEN 2 AND 8"
	CHJoin   = "SELECT o_ol_cnt, COUNT(*) FROM orders JOIN order_line ON ol_o_key = o_key GROUP BY o_ol_cnt ORDER BY o_ol_cnt"
	CHStock  = "SELECT COUNT(*) FROM stock WHERE s_quantity < 60"
	CHTopTen = "SELECT ol_i_id, SUM(ol_amount) AS amount FROM order_line GROUP BY ol_i_id ORDER BY amount DESC LIMIT 10"
)

// CHQueries lists the analytic statements in sweep order.
var CHQueries = [5]string{CHQ1, CHQ6, CHJoin, CHStock, CHTopTen}
