package main

import (
	"fmt"

	"lbmm/internal/core"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/service"
	"lbmm/internal/workload"
)

// Every workload multiplies uniformly sparse d=4 instances over the counting
// ring; only n and the number of structures differ between them.
const (
	sparsity  = 4
	valueSets = 16 // value sets of a serve workload's hot structure, cycled by the driver
)

var (
	countRing = ring.Counting{}
	planOpts  = core.Options{Ring: countRing}
)

// lane is one value set of a structure together with its expected product,
// computed once, outside every timed region, on the map engine.
type lane struct {
	a, b, want *matrix.Sparse
	// wire is the request as a client holds it before encoding; wantWire is
	// the oracle product in the cell order the wire formats use.
	wire     *service.WireMultiply
	wantWire []service.WireEntry
}

// structure is one sparsity structure and the value sets realizing it.
type structure struct {
	inst  *graph.Instance
	lanes []lane
}

// generate builds structure number k of a seed: the instance the issue fixes
// (workload.Instance(US,US,US,n,4,seed+k)) and sets value sets with oracle
// products. The layers under test only ever see what this returns.
func generate(n int, seed int64, k, sets int) (*structure, error) {
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, n, sparsity, seed+int64(k))
	s := &structure{inst: inst, lanes: make([]lane, sets)}
	xhat := inst.Xhat.Entries()
	for v := range s.lanes {
		vseed := (seed+int64(k))*int64(2*valueSets) + int64(2*v)
		a := matrix.Random(inst.Ahat, countRing, vseed+1)
		b := matrix.Random(inst.Bhat, countRing, vseed+2)
		want, _, err := core.Multiply(a, b, inst.Xhat, planOpts)
		if err != nil {
			return nil, fmt.Errorf("oracle for structure %d set %d: %w", k, v, err)
		}
		s.lanes[v] = lane{
			a: a, b: b, want: want,
			wire: &service.WireMultiply{
				N: n, Ring: countRing.Name(),
				A: service.WireEntries(a), B: service.WireEntries(b), Xhat: xhat,
			},
			wantWire: service.WireEntries(want),
		}
	}
	return s, nil
}

func (s *structure) prepare() (*core.Prepared, error) {
	return core.Prepare(s.inst.Ahat, s.inst.Bhat, s.inst.Xhat, planOpts)
}

func (s *structure) fingerprint() (string, error) {
	return core.Fingerprint(s.inst.Ahat, s.inst.Bhat, s.inst.Xhat, planOpts)
}

// valueBytes is what crosses the engine's API per lane when only values
// move: one 8-byte ring value per stored cell of A, B and the product.
func (l *lane) valueBytes() int64 {
	return 8 * int64(l.a.NNZ()+l.b.NNZ()+l.want.NNZ())
}
