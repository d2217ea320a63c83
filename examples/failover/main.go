// Failover: a three-datacenter deployment loses its DC1 DN leader. Act
// one observes the §III machinery directly at the DN layer: the Paxos
// group elects a follower in another datacenter, the old leader rejoins
// as a follower and truncates its unreplicated tail. Act two replays
// the same failure through the SQL surface: GMS health-checks the
// group, repoints shard routing at the new leader, and the client's
// auto-commit statements retry transparently.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dn"
	"repro/internal/hlc"
	"repro/internal/paxos"
	"repro/internal/simnet"
	"repro/internal/types"
)

func main() {
	topo := simnet.DefaultTopology()
	net := simnet.New(topo)
	members := []paxos.Member{
		{Name: "dn-dc1", DC: simnet.DC1},
		{Name: "dn-dc2", DC: simnet.DC2},
		{Name: "dn-dc3", DC: simnet.DC3},
	}
	instances := map[string]*dn.Instance{}
	for i, m := range members {
		inst, err := dn.NewInstance(dn.Config{
			Name: m.Name, DC: m.DC, Net: net,
			Group: "g0", Members: members,
			Bootstrap: i == 0,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer inst.Stop()
		instances[m.Name] = inst
	}
	leader := instances["dn-dc1"]
	schema := types.NewSchema("kv", []types.Column{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindString},
	}, []int{0})
	if err := leader.CreateTable(1, 0, schema); err != nil {
		log.Fatal(err)
	}

	// A client endpoint committing through the leader: one write that
	// opens the branch with its snapshot, then a one-phase commit.
	net.Register("client", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	clock := hlc.NewClock(nil)
	commit := func(from, target string, snap hlc.Timestamp, txnID uint64, k int64, v string) error {
		if _, err := net.Call(from, target, dn.MultiWriteReq{TxnID: txnID, SnapshotTS: snap,
			Writes: []dn.WriteItem{{Table: 1, Op: dn.OpInsert, Row: types.Row{types.Int(k), types.Str(v)}}}}); err != nil {
			return err
		}
		_, err := net.Call(from, target, dn.CommitReq{TxnID: txnID})
		return err
	}
	for i := int64(0); i < 10; i++ {
		if err := commit("client", "dn-dc1", clock.Now(), uint64(100+i), i, fmt.Sprintf("v%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("10 transactions committed through %s (epoch %d, DLSN %d)\n",
		leader.Name(), leader.Paxos().Epoch(), leader.Paxos().DLSN())

	// Datacenter 1 goes dark.
	fmt.Println("\nisolating DC1 (leader's datacenter)...")
	net.IsolateDC(simnet.DC1, []simnet.DC{simnet.DC1, simnet.DC2, simnet.DC3})

	var newLeader *dn.Instance
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, name := range []string{"dn-dc2", "dn-dc3"} {
			if instances[name].IsLeader() {
				newLeader = instances[name]
			}
		}
		if newLeader != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if newLeader == nil {
		log.Fatal("no new leader elected")
	}
	fmt.Printf("new leader: %s in %s (epoch %d)\n",
		newLeader.Name(), newLeader.DC(), newLeader.Paxos().Epoch())

	// Clients in surviving DCs keep writing through the new leader.
	net.Register("client2", simnet.DC2, func(string, any) (any, error) { return nil, nil })
	clock2 := hlc.NewClock(nil)
	if err := commit("client2", newLeader.Name(), clock2.Now(), 900, 100, "post-failover"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("write committed on the new leader during the DC1 outage")

	// DC1 heals: the old leader rejoins as a follower and converges.
	fmt.Println("\nhealing DC1...")
	net.Heal(simnet.DC1, simnet.DC2)
	net.Heal(simnet.DC1, simnet.DC3)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !leader.IsLeader() &&
			leader.Paxos().DLSN() == newLeader.Paxos().DLSN() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("old leader %s is now a %s at DLSN %d (new leader DLSN %d)\n",
		leader.Name(), leader.Paxos().Role(), leader.Paxos().DLSN(), newLeader.Paxos().DLSN())

	// The rejoined node's engine sees the post-failover write.
	row, ok, _ := leader.Engine().GetAt(1, types.EncodeKey(nil, types.Int(100)), clock2.Now())
	if !ok {
		log.Fatal("rejoined follower missing the post-failover write")
	}
	fmt.Printf("rejoined follower replayed the outage-window write: %q\n", row[1].AsString())

	sqlLayerFailover()
}

// sqlLayerFailover replays the outage through a full cluster: the
// client never sees the failure because the CN heals routing and
// retries the auto-commit statement (§II-A).
func sqlLayerFailover() {
	fmt.Println("\n=== the same failure, seen from SQL ===")
	cluster, err := core.NewCluster(core.Config{DCs: 3, MultiDC: true, DNGroups: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	s := cluster.CN(simnet.DC1).NewSession()
	mustSQL := func(q string) *core.Result {
		res, err := s.Execute(q)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		return res
	}
	mustSQL(`CREATE TABLE acct (id BIGINT, bal BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	for i := 0; i < 20; i++ {
		mustSQL(fmt.Sprintf("INSERT INTO acct (id, bal) VALUES (%d, %d)", i, 100))
	}
	old, err := cluster.FailDNLeader("dng0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("killed DN leader %s; issuing SELECT as if nothing happened...\n", old)
	start := time.Now()
	res := mustSQL("SELECT COUNT(*) FROM acct")
	newDN, _ := cluster.GMS.DNForShard("acct", 0)
	fmt.Printf("COUNT(*) = %v after %v — GMS re-routed %s -> %s behind one statement\n",
		res.Rows[0][0].AsInt(), time.Since(start).Round(time.Millisecond), old, newDN)
	mustSQL("INSERT INTO acct (id, bal) VALUES (999, 1)")
	fmt.Println("writes continue against the new leader")
}
