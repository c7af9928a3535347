// Package dense implements the in-model dense (and dense-batch) matrix
// multiplication routines the paper uses as black boxes:
//
//   - Gather: the O(n²)-round baseline of §1.1 (ship everything to
//     computer 1, solve locally, ship results back).
//   - Cube: the semiring "3D" algorithm in the style of Censor-Hillel et
//     al. [3], O(p^{... }) communication realized as h-relations; on a
//     d-cluster it gives Lemma 2.1's O(d^{4/3}) rounds, and on a full
//     uniformly sparse instance it gives the O(d·n^{1/3}) bound of [2].
//   - Strassen: message-level recursive distributed Strassen for fields
//     (see strassen.go), the executable stand-in for the O(n^{2-2/ω})
//     field algorithm.
//
// The Cube routine is *triangle-masked*: the communication pattern is the
// dense 3D pattern, but the free local block multiplications consult the
// exact set of triangles assigned to the batch, so a batch never processes
// a triangle that belongs to another batch. This is what makes the
// two-phase Theorem 4.2 algorithm exact over semirings without subtraction.
//
// Every routine writes its steps once, to an lbm.Emitter: a batch through
// EmitCubeProgram or EmitStrassenProgram, a whole instance as a Routine
// (Gather, WholeCube, WholeStrassen).
package dense

import (
	"fmt"
	"sort"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/routing"
	"lbmm/internal/vnet"
)

// CubeSpec describes one masked cube multiplication batch.
type CubeSpec struct {
	// N is the global matrix dimension (needed to address role vnodes).
	N int
	// Procs are the virtual processors available to this batch; they must
	// be pairwise distinct and, across concurrently-run batches, disjoint.
	Procs []int32
	// I, J, K are the global index sets of the batch (a cluster's I', J',
	// K', or the full 0..n-1 for a whole-instance run).
	I, J, K []int32
	// Tris is the exact set of triangles this batch must process. All its
	// indices must lie in I × J × K.
	Tris []graph.Triangle
	// Layout locates the inputs and outputs. Senders use their owning
	// computer's I-role (for A) or J-role (for B) virtual node; outputs
	// accumulate at the owner's I-role virtual node.
	Layout *lbm.Layout
}

// CubeJob is a planned batch: the virtual messages of two communication
// phases with a free local multiplication step between them. A batch's
// phases are scheduled together (PlanCubeProgram).
type CubeJob struct {
	distribute []lbm.Send
	aggregate  []lbm.Send
	// prods are the free local products: host computes a*b into dst.
	prods []prodTask
	// cleanup lists staged copies to delete after the batch (the original
	// input copies are never deleted).
	cleanup []hostKeyPair
	// Rounds3D estimates nothing; exact rounds come from the machine.
}

type prodTask struct {
	host     lbm.NodeID
	a, b, ds lbm.Key
}

type hostKeyPair struct {
	host lbm.NodeID
	key  lbm.Key
}

// gridDim returns the largest q with q³ ≤ p.
func gridDim(p int) int {
	q := 1
	for (q+1)*(q+1)*(q+1) <= p {
		q++
	}
	return q
}

// chunkIndex maps a position in [0,size) to one of q balanced contiguous
// chunks.
func chunkIndex(pos, size, q int) int {
	c := pos * q / size
	if c >= q {
		c = q - 1
	}
	return c
}

// PlanCube preprocesses one masked cube batch. All routing decisions depend
// only on the support (the triangle set), per the supported model.
//
// Data layout convention (the row layout over role vnodes): A(i,j) at vnode i,
// B(j,k) at vnode N+j, X(i,k) owned by vnode i.
func PlanCube(net *vnet.Net, spec *CubeSpec) (*CubeJob, error) {
	if len(spec.Procs) == 0 {
		return nil, fmt.Errorf("dense: cube batch needs processors")
	}
	if len(spec.Tris) == 0 {
		return &CubeJob{}, nil
	}
	// A cubic grid: rectangular grids use more of the processor budget but
	// inflate the per-side copy factors (each A element is copied q_c
	// times, each B element q_a times), which measurably hurts on the
	// block workloads; the cubic floor keeps all three factors at q.
	q := gridDim(len(spec.Procs))
	qa, qb, qc := q, q, q
	n := int32(spec.N)

	// Positions of global indices within the batch index sets, passed
	// through a deterministic pseudorandom permutation before chunking.
	// Without it, correlated inputs (e.g. block-diagonal supports, where
	// i ≈ j ≈ k for every triangle) collapse onto the q diagonal cells of
	// the grid and leave q³−q processors idle; the permutation is
	// support-independent randomization of the kind the model's free
	// preprocessing may always apply.
	posI := permutedPositionMap(spec.I, 0x9e3779b9)
	posJ := permutedPositionMap(spec.J, 0x85ebca6b)
	posK := permutedPositionMap(spec.K, 0xc2b2ae35)

	proc := func(a, b, c int) int32 {
		return spec.Procs[(a*qb+b)*qc+c]
	}

	// For every assigned triangle, its grid cell.
	type pairDst struct {
		key  lbm.Key
		dst  int32
		from int32
	}
	needA := map[pairDst]struct{}{}
	needB := map[pairDst]struct{}{}
	// partials[{i,k,b}] marks which partial keys will exist at which proc.
	type partial struct {
		i, k int32
		b    int
	}
	partialProc := map[partial]int32{}
	var prods []prodTask

	for _, t := range spec.Tris {
		pi, ok := posI[t.I]
		if !ok {
			return nil, fmt.Errorf("dense: triangle %v has I outside batch", t)
		}
		pj, ok := posJ[t.J]
		if !ok {
			return nil, fmt.Errorf("dense: triangle %v has J outside batch", t)
		}
		pk, ok := posK[t.K]
		if !ok {
			return nil, fmt.Errorf("dense: triangle %v has K outside batch", t)
		}
		a := chunkIndex(int(pi), len(spec.I), qa)
		b := chunkIndex(int(pj), len(spec.J), qb)
		c := chunkIndex(int(pk), len(spec.K), qc)
		p := proc(a, b, c)
		needA[pairDst{key: lbm.AKey(t.I, t.J), dst: p, from: int32(spec.Layout.OwnerA(t.I, t.J))}] = struct{}{}
		needB[pairDst{key: lbm.BKey(t.J, t.K), dst: p, from: n + int32(spec.Layout.OwnerB(t.J, t.K))}] = struct{}{}
		partialProc[partial{i: t.I, k: t.K, b: b}] = p
		prods = append(prods, prodTask{
			host: net.Host[p],
			a:    lbm.AKey(t.I, t.J),
			b:    lbm.BKey(t.J, t.K),
			ds:   lbm.PKey(t.I, t.K, int32(b)),
		})
	}

	job := &CubeJob{prods: prods}

	// Phase 1: distribute the needed A and B copies (one h-relation). The
	// cleanup list is read off the sorted sends, never off the maps, so the
	// emitted program is the same in every process.
	var dist []lbm.Send
	for _, need := range [...]map[pairDst]struct{}{needA, needB} {
		for nd := range need {
			dist = append(dist, lbm.Send{From: nd.from, To: nd.dst, Src: nd.key, Dst: nd.key, Op: lbm.OpSet})
		}
	}
	sortSends(dist)
	for _, s := range dist {
		if net.Host[s.From] != net.Host[s.To] {
			job.cleanup = append(job.cleanup, hostKeyPair{net.Host[s.To], s.Dst})
		}
	}
	job.distribute = dist

	// Phase 2: aggregate partials into the X owners.
	var agg []lbm.Send
	for pt, p := range partialProc {
		agg = append(agg, lbm.Send{
			From: p, To: int32(spec.Layout.OwnerX(pt.i, pt.k)),
			Src: lbm.PKey(pt.i, pt.k, int32(pt.b)), Dst: lbm.XKey(pt.i, pt.k), Op: lbm.OpAcc,
		})
	}
	sortSends(agg)
	for _, s := range agg {
		job.cleanup = append(job.cleanup, hostKeyPair{net.Host[s.From], s.Src})
	}
	job.aggregate = agg
	return job, nil
}

// sortSends orders virtual messages deterministically so that plans built
// from map iteration are reproducible run to run.
func sortSends(msgs []lbm.Send) {
	sort.Slice(msgs, func(a, b int) bool {
		x, y := msgs[a], msgs[b]
		if x.From != y.From {
			return x.From < y.From
		}
		if x.To != y.To {
			return x.To < y.To
		}
		if x.Src != y.Src {
			return keyLess(x.Src, y.Src)
		}
		return keyLess(x.Dst, y.Dst)
	})
}

func keyLess(a, b lbm.Key) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.I != b.I {
		return a.I < b.I
	}
	if a.J != b.J {
		return a.J < b.J
	}
	return a.Seq < b.Seq
}

// permutedPositionMap maps each global index of xs to a position under a
// deterministic Fisher–Yates shuffle of 0..len(xs)-1 driven by a fixed-seed
// splitmix64 stream.
func permutedPositionMap(xs []int32, seed uint64) map[int32]int32 {
	perm := make([]int32, len(xs))
	for i := range perm {
		perm[i] = int32(i)
	}
	state := seed ^ uint64(len(xs))*0x9e3779b97f4a7c15
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	m := make(map[int32]int32, len(xs))
	for p, x := range xs {
		m[x] = perm[p]
	}
	return m
}

// CubeProgram is a batch of cube jobs with each communication phase
// scheduled and lowered to a real plan once, at plan time: the vnet
// compilation is free preprocessing in the supported model, never
// per-request work.
type CubeProgram struct {
	Dist, Agg *lbm.Plan
}

// PlanCubeProgram schedules each phase of the jobs as one h-relation over
// all their virtual messages (routing.Schedule) and compiles it to a real
// plan. The jobs must use disjoint processors and keys, as the disjoint
// clusters of one clustering do; their input and output owners may be
// shared.
func PlanCubeProgram(net *vnet.Net, jobs []*CubeJob) (*CubeProgram, error) {
	var dist, agg []lbm.Send
	for _, j := range jobs {
		dist = append(dist, j.distribute...)
		agg = append(agg, j.aggregate...)
	}
	d, err := net.Compile(routing.Schedule(dist))
	if err != nil {
		return nil, fmt.Errorf("dense: distribute: %w", err)
	}
	a, err := net.Compile(routing.Schedule(agg))
	if err != nil {
		return nil, fmt.Errorf("dense: aggregate: %w", err)
	}
	return &CubeProgram{Dist: d, Agg: a}, nil
}

// EmitCubeProgram writes a batch of cube jobs to e: the distribute plan,
// every job's local products, the aggregate plan, then the clearing of the
// staged copies. The products between distribute and aggregate end a chain,
// so each plan is a chain of its own.
func EmitCubeProgram(e lbm.Emitter, jobs []*CubeJob, cube *CubeProgram) error {
	e.BeginPhase("dense/cube")
	e.Counter("jobs", float64(len(jobs)))
	e.BeginPhase("distribute")
	if err := e.Route(cube.Dist, "dense/cube distribute", "dense: distribute", false); err != nil {
		return err
	}
	e.EndPhase()
	for _, j := range jobs {
		for _, p := range j.prods {
			e.MulAcc(p.host, p.a, p.b, p.ds)
		}
	}
	e.BeginPhase("aggregate")
	if err := e.Route(cube.Agg, "dense/cube aggregate", "dense: aggregate", false); err != nil {
		return err
	}
	e.EndPhase()
	for _, j := range jobs {
		for _, ck := range j.cleanup {
			e.Clear(ck.host, ck.key)
		}
	}
	e.EndPhase()
	return nil
}
