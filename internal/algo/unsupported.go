package algo

import (
	"fmt"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/routing"
)

// This file implements the trivial *unsupported*-model protocol, the
// baseline for the paper's §1.6 open direction ("eliminating the knowledge
// of the support is a major challenge for future work"). When the sparsity
// structure is NOT known in advance, the computers first disseminate it:
// every support entry (one O(log n)-bit word) is gathered to computer 0 and
// pipeline-broadcast to everyone, after which all computers know the full
// structure, can locally derive the same deterministic plan, and the
// supported algorithm runs unchanged. The dissemination costs
// Θ(nnz + log n) rounds — it dominates every supported algorithm in this
// repository, which is exactly why the paper's supported-model results are
// interesting.

// kindSupport holds disseminated support words.
const kindSupport = lbm.KindUser + 120

// encodeEntry packs (matrix id, i, j) into one ring value word. Exact for
// n < 2^24 (3·n² < 2^53).
func encodeEntry(which, i, j int, n int) float64 {
	return float64(which)*float64(n)*float64(n) + float64(i)*float64(n) + float64(j)
}

func decodeEntry(v float64, n int) (which, i, j int) {
	x := int64(v)
	n64 := int64(n)
	return int(x / (n64 * n64)), int(x / n64 % n64), int(x % n64)
}

// DisseminateSupport runs the support-dissemination protocol and returns
// the number of structure words moved. Afterwards every computer holds all
// support entries under Key{kindSupport, t, 0, 0} for t = 0..words-1.
func DisseminateSupport(m *lbm.Machine, l *lbm.Layout, inst *graph.Instance) (int, error) {
	// Route runs each plan inside its phase and closes every open span
	// when it fails.
	m.BeginPhase("unsupported")
	m.BeginPhase("gather")
	// Each owner sends the code word of each entry it holds to computer 0.
	type entry struct {
		owner lbm.NodeID
		code  float64
	}
	var entries []entry
	for i := range inst.Ahat.N {
		for _, j := range inst.Ahat.Row(i) {
			entries = append(entries, entry{l.OwnerA(int32(i), j), encodeEntry(0, i, int(j), inst.N)})
		}
	}
	for j := range inst.Bhat.N {
		for _, k := range inst.Bhat.Row(j) {
			entries = append(entries, entry{l.OwnerB(int32(j), k), encodeEntry(1, j, int(k), inst.N)})
		}
	}
	for i := range inst.Xhat.N {
		for _, k := range inst.Xhat.Row(i) {
			entries = append(entries, entry{l.OwnerX(int32(i), k), encodeEntry(2, i, int(k), inst.N)})
		}
	}

	// Stage the code words locally at their owners (free: the owner knows
	// its own entries), then gather.
	perOwner := map[lbm.NodeID]int32{}
	var msgs []lbm.Send
	for t, e := range entries {
		src := lbm.Key{Kind: kindSupport, I: -1 - perOwner[e.owner], J: int32(e.owner), Seq: 0}
		perOwner[e.owner]++
		m.Put(e.owner, src, e.code)
		dst := lbm.Key{Kind: kindSupport, I: int32(t), J: 0, Seq: 0}
		msgs = append(msgs, lbm.Send{From: e.owner, To: 0, Src: src, Dst: dst, Op: lbm.OpSet})
	}
	if err := m.Route(routing.Schedule(msgs), "", "unsupported gather", false); err != nil {
		return 0, err
	}
	m.EndPhase()

	// Pipeline-broadcast the words to everyone.
	m.BeginPhase("broadcast")
	m.Counter("words", float64(len(entries)))
	nodes := make([]lbm.NodeID, m.N)
	for i := range nodes {
		nodes[i] = lbm.NodeID(i)
	}
	plan := routing.PipelinedBroadcast(nodes, len(entries), func(t int) lbm.Key {
		return lbm.Key{Kind: kindSupport, I: int32(t), J: 0, Seq: 0}
	})
	if err := m.Route(plan, "", "unsupported broadcast", false); err != nil {
		return 0, err
	}
	m.EndPhase()
	m.EndPhase()
	return len(entries), nil
}

// VerifyDissemination decodes the words held by a computer back into the
// three supports and checks them against the instance (test hook: proves
// the information really arrived, not just messages).
func VerifyDissemination(m *lbm.Machine, node lbm.NodeID, inst *graph.Instance) error {
	words := inst.Ahat.NNZ + inst.Bhat.NNZ + inst.Xhat.NNZ
	seen := [3]map[[2]int]bool{{}, {}, {}}
	for t := 0; t < words; t++ {
		v, ok := m.Get(node, lbm.Key{Kind: kindSupport, I: int32(t), J: 0, Seq: 0})
		if !ok {
			return fmt.Errorf("computer %d missing support word %d", node, t)
		}
		which, i, j := decodeEntry(v, inst.N)
		if which < 0 || which > 2 {
			return fmt.Errorf("computer %d: bad word %v", node, v)
		}
		seen[which][[2]int{i, j}] = true
	}
	check := func(which int, s *matrix.Support) error {
		for i := range s.N {
			for _, j := range s.Row(i) {
				if !seen[which][[2]int{i, int(j)}] {
					return fmt.Errorf("computer %d missing entry %d:(%d,%d)", node, which, i, j)
				}
			}
		}
		return nil
	}
	if err := check(0, inst.Ahat); err != nil {
		return err
	}
	if err := check(1, inst.Bhat); err != nil {
		return err
	}
	return check(2, inst.Xhat)
}
