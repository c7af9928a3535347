package cluster

import (
	"fmt"

	"lbmm/internal/dense"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/vnet"
)

// ExecStats reports how a batch was executed.
type ExecStats struct {
	// CubeClusters were processed with the masked 3D semiring routine.
	CubeClusters int
	// StrassenClusters were processed with the distributed Strassen field
	// routine (only clusters whose mask-product closure equals their
	// assigned triangle set — see maskProductExact — are eligible, since
	// Strassen cannot mask individual triples).
	StrassenClusters int
}

// procsOf returns the 3d role virtual nodes of a cluster.
func procsOf(c graph.Cluster, n int) []int32 {
	out := make([]int32, 0, len(c.I)+len(c.J)+len(c.K))
	out = append(out, c.I...)
	for _, j := range c.J {
		out = append(out, int32(n)+j)
	}
	for _, k := range c.K {
		out = append(out, 2*int32(n)+k)
	}
	return out
}

// maskProductExact reports whether the assigned triangle set equals the
// mask product of its own pair projections — the condition under which a
// genuinely dense (bilinear) routine processes exactly the assigned set.
// It always holds for the first batch (the projections come from the full
// support), and can fail for later batches when an earlier batch already
// consumed a triangle whose pairs are still active.
func maskProductExact(a Assigned) bool {
	saRows := map[int32][]int32{}
	sb := map[[2]int32]bool{}
	sx := map[[2]int32]bool{}
	inP := map[graph.Triangle]bool{}
	for _, t := range a.Tris {
		saRows[t.I] = append(saRows[t.I], t.J)
		sb[[2]int32{t.J, t.K}] = true
		sx[[2]int32{t.I, t.K}] = true
		inP[t] = true
	}
	// Dedup SA rows.
	for i, js := range saRows {
		seen := map[int32]bool{}
		out := js[:0]
		for _, j := range js {
			if !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
		saRows[i] = out
	}
	for ik := range sx {
		i, k := ik[0], ik[1]
		for _, j := range saRows[i] {
			if sb[[2]int32{j, k}] && !inP[graph.Triangle{I: i, J: j, K: k}] {
				return false
			}
		}
	}
	return true
}

// pairSupports builds the n×n supports of the assigned set's projections.
func pairSupports(a Assigned, n int) (sa, sb, sx *matrix.Support) {
	var ae, be, xe [][2]int
	for _, t := range a.Tris {
		ae = append(ae, [2]int{int(t.I), int(t.J)})
		be = append(be, [2]int{int(t.J), int(t.K)})
		xe = append(xe, [2]int{int(t.I), int(t.K)})
	}
	return matrix.NewSupport(n, ae), matrix.NewSupport(n, be), matrix.NewSupport(n, xe)
}

// PlannedBatch is a clustering with its per-cluster dense jobs already
// planned — reusable across value sets, since plans depend only on the
// support (the supported model's preprocessing as a first-class artifact).
type PlannedBatch struct {
	cubeJobs     []*dense.CubeJob
	strassenJobs []*dense.StrassenJob
	cubeProg     *dense.CubeProgram
	strassenProg *dense.StrassenProgram
	Stats        ExecStats
}

// PlanBatch preprocesses one clustering: every cluster gets a dense batch
// plan on its own 3d virtual processors (Lemma 2.1). When field is true,
// clusters satisfying maskProductExact use distributed Strassen; all other
// clusters (and every cluster over a plain semiring) use the
// triangle-masked cube.
func PlanBatch(net *vnet.Net, n int, l *lbm.Layout, batch Batch, field bool) (*PlannedBatch, error) {
	pb := &PlannedBatch{}
	for ci, a := range batch.Clusters {
		if len(a.Tris) == 0 {
			continue
		}
		if field && maskProductExact(a) {
			sa, sb, sx := pairSupports(a, n)
			job, err := dense.PlanStrassen(net, &dense.StrassenSpec{
				N: n, Procs: procsOf(a.Cluster, n),
				I: a.Cluster.I, J: a.Cluster.J, K: a.Cluster.K,
				SA: sa, SB: sb, SX: sx, Tag: int32(ci % (1 << 15)), Layout: l,
			})
			if err != nil {
				return nil, fmt.Errorf("cluster: strassen plan: %w", err)
			}
			pb.strassenJobs = append(pb.strassenJobs, job)
			pb.Stats.StrassenClusters++
			continue
		}
		job, err := dense.PlanCube(net, &dense.CubeSpec{
			N: n, Procs: procsOf(a.Cluster, n),
			I: a.Cluster.I, J: a.Cluster.J, K: a.Cluster.K, Tris: a.Tris, Layout: l,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: cube plan: %w", err)
		}
		pb.cubeJobs = append(pb.cubeJobs, job)
		pb.Stats.CubeClusters++
	}
	// Lower the merged per-phase communication to real plans now: plans
	// depend only on the support, so this is free preprocessing and Run does
	// no vnet compilation.
	var err error
	if len(pb.strassenJobs) > 0 {
		if pb.strassenProg, err = dense.PlanStrassenProgram(net, pb.strassenJobs); err != nil {
			return nil, err
		}
	}
	if len(pb.cubeJobs) > 0 {
		if pb.cubeProg, err = dense.PlanCubeProgram(net, pb.cubeJobs); err != nil {
			return nil, err
		}
	}
	return pb, nil
}

// Run executes a planned batch. The two sub-batches run back to back.
func (pb *PlannedBatch) Run(m *lbm.Machine) error {
	if len(pb.strassenJobs) > 0 {
		if err := dense.RunStrassenJobsWith(m, pb.strassenJobs, pb.strassenProg); err != nil {
			return err
		}
	}
	if len(pb.cubeJobs) > 0 {
		if err := dense.RunCubeJobsWith(m, pb.cubeJobs, pb.cubeProg); err != nil {
			return err
		}
	}
	return nil
}

// CompiledBatch is a planned batch lowered to the slot-addressed executable
// form.
type CompiledBatch struct {
	strassen *dense.CompiledStrassenProgram
	cube     *dense.CompiledCubeProgram
}

// Compile lowers a planned batch into the shared slot space.
func (pb *PlannedBatch) Compile(sp *lbm.SlotSpace) (*CompiledBatch, error) {
	cb := &CompiledBatch{}
	var err error
	if len(pb.strassenJobs) > 0 {
		if cb.strassen, err = dense.CompileStrassenProgram(sp, pb.strassenJobs, pb.strassenProg); err != nil {
			return nil, err
		}
	}
	if len(pb.cubeJobs) > 0 {
		if cb.cube, err = dense.CompileCubeProgram(sp, pb.cubeJobs, pb.cubeProg); err != nil {
			return nil, err
		}
	}
	return cb, nil
}

// MemoryBytes estimates the resident size of the compiled batch.
func (cb *CompiledBatch) MemoryBytes() int64 {
	return cb.strassen.MemoryBytes() + cb.cube.MemoryBytes()
}

// AddNodeLoads accumulates the batch's per-node real-message loads.
func (cb *CompiledBatch) AddNodeLoads(send, recv []int64) {
	cb.strassen.AddNodeLoads(send, recv)
	cb.cube.AddNodeLoads(send, recv)
}

// AddExchanges appends the batch's rounds-versus-exchanges rows.
func (cb *CompiledBatch) AddExchanges(rep *lbm.ExchangeReport) {
	cb.strassen.AddExchanges(rep)
	cb.cube.AddExchanges(rep)
}

// Run executes a compiled batch, mirroring PlannedBatch.Run.
func (cb *CompiledBatch) Run(x *lbm.Exec) error {
	if cb.strassen != nil {
		if err := cb.strassen.Run(x); err != nil {
			return err
		}
	}
	if cb.cube != nil {
		if err := cb.cube.Run(x); err != nil {
			return err
		}
	}
	return nil
}

// RunBatch plans and executes one clustering in a single call.
func RunBatch(m *lbm.Machine, net *vnet.Net, n int, l *lbm.Layout, batch Batch) (ExecStats, error) {
	_, isField := ring.AsField(m.R)
	pb, err := PlanBatch(net, n, l, batch, isField)
	if err != nil {
		return ExecStats{}, err
	}
	m.BeginPhase("cluster/batch")
	defer m.EndPhase()
	m.Counter("clusters", float64(len(batch.Clusters)))
	m.Counter("cube_clusters", float64(pb.Stats.CubeClusters))
	m.Counter("strassen_clusters", float64(pb.Stats.StrassenClusters))
	m.Counter("triangles", float64(batch.Size()))
	var volume float64
	for _, a := range batch.Clusters {
		volume += float64(len(a.Cluster.I)) * float64(len(a.Cluster.J)) * float64(len(a.Cluster.K))
	}
	if volume > 0 {
		// Density = assigned triangles per unit of cluster volume: Lemma
		// 4.7's gain criterion in measurable form.
		m.Counter("density", float64(batch.Size())/volume)
	}
	return pb.Stats, pb.Run(m)
}

// RunBatches executes a sequence of clusterings and sweeps compiler staging
// keys afterwards.
func RunBatches(m *lbm.Machine, net *vnet.Net, n int, l *lbm.Layout, batches []Batch) (ExecStats, error) {
	var total ExecStats
	for _, b := range batches {
		st, err := RunBatch(m, net, n, l, b)
		total.CubeClusters += st.CubeClusters
		total.StrassenClusters += st.StrassenClusters
		if err != nil {
			return total, err
		}
	}
	vnet.CleanupStaging(m)
	return total, nil
}
