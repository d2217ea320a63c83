package dn

import (
	"time"

	"repro/internal/simnet"
)

// svcModel simulates a node's finite compute capacity as a queueing
// station: Cores concurrent servers, each processing rows at
// rowsPerSecond. Every request occupies a core for rows/rate seconds of
// injected time, waited out through simnet.Delay's deadline queue: the
// wait never ends early, and even the few-microsecond cost of a point
// operation overshoots by only a median ~10 µs (idle 2-core Linux host),
// so each request pays its own cost as it is served.
//
// This is the simulation piece behind two paper behaviours: AP scans on
// the RW node contend with TP transactions for the same cores (§VII-C
// configs 1-2), and adding RO nodes adds capacity, so multi-stream
// TPC-H gets faster with each replica (Fig. 9b).
type svcModel struct {
	sem        chan struct{}
	rowsPerSec float64
}

// defaultSvcCores matches the paper's 8-core DN instances.
const defaultSvcCores = 8

// newSvcModel builds a model; rate <= 0 returns nil (unlimited).
func newSvcModel(rate float64, cores int) *svcModel {
	if rate <= 0 {
		return nil
	}
	if cores <= 0 {
		cores = defaultSvcCores
	}
	return &svcModel{sem: make(chan struct{}, cores), rowsPerSec: rate}
}

// serve charges the cost of processing rows. Safe on a nil model.
func (m *svcModel) serve(rows float64) {
	if m == nil || rows <= 0 {
		return
	}
	m.sem <- struct{}{}
	defer func() { <-m.sem }()
	simnet.Delay(time.Duration(rows / m.rowsPerSec * float64(time.Second)))
}
