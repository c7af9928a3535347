// Package shard is the multi-node tier of the serving stack: a small
// membership ring plus a fingerprint router that spreads plan ownership
// across shards by consistent hashing.
//
// The low-bandwidth model is fundamentally many nodes each holding a slice
// of the work; this package applies the same shape to the serving layer
// itself. Each shard runs an ordinary service.Server, and a Router in front
// of every shard computes the core.Fingerprint of each request and proxies
// it to the owning shard, so:
//
//   - each shard's plan cache and coalescer see a dense stream of its own
//     structures (higher lane occupancy for dynamic batching, no duplicate
//     compiled plans resident across the fleet);
//   - any shard can accept any request — a non-owner forwards, an owner
//     serves — so clients need no routing knowledge;
//   - all shards point at one planstore directory, so ownership changes
//     never recompile a stored plan: the new owner warm-loads it from disk.
//
// Membership follows the classic ring shape (next / twice-next pointers,
// periodic alive-checks on the successor, ring repair through the
// twice-next pointer when the successor dies). Ownership is a pure function of the live membership view —
// consistent hashing with virtual nodes over the fingerprint space — so no
// coordination is needed to route, and a membership change remaps only the
// keys the departed (or arrived) shard owned.
//
// docs/SHARDING.md documents the design; shard/* counters are published
// through obsv.CounterSet.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// ringDomain versions the ownership hash: any change to how members or
// fingerprints are mapped onto the ring must bump it, so two builds can
// never silently disagree about ownership while sharing a store.
const ringDomain = "lbmm.shard.v1"

// DefaultVNodes is the virtual-node count per member: enough points that
// ownership spreads within a few percent of uniform for small rings, cheap
// enough that rebuilding on every membership change is free.
const DefaultVNodes = 64

// Member is one shard of the ring: a stable identity and the HTTP address
// its router listens on. IDs order the membership ring (next / twice-next
// pointers); the hash ring spreads each ID into virtual nodes.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// point is one virtual node on the hash ring.
type point struct {
	hash  uint64
	owner int // index into HashRing.members
}

// HashRing maps fingerprints to members by consistent hashing with virtual
// nodes. It is immutable after Build — membership changes build a fresh
// ring — so lookups need no lock.
type HashRing struct {
	members []Member
	points  []point
}

// hash64 hashes a domain-separated string onto the ring's key space.
func hash64(parts ...string) uint64 {
	h := sha256.New()
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(p)))
		h.Write(buf[:])
		h.Write([]byte(p))
	}
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// BuildRing constructs the ownership ring for a membership snapshot.
// vnodes <= 0 uses DefaultVNodes. An empty membership yields a ring that
// owns nothing (Owner reports false).
func BuildRing(members []Member, vnodes int) *HashRing {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &HashRing{members: append([]Member(nil), members...)}
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].ID < r.members[j].ID })
	r.points = make([]point, 0, len(r.members)*vnodes)
	var vbuf [8]byte
	for idx, m := range r.members {
		for v := 0; v < vnodes; v++ {
			binary.LittleEndian.PutUint64(vbuf[:], uint64(v))
			r.points = append(r.points, point{
				hash:  hash64(ringDomain, "member", m.ID, string(vbuf[:])),
				owner: idx,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Colliding virtual nodes tie-break by member order so every build
		// agrees; with 64-bit points this is a formality.
		return r.points[i].owner < r.points[j].owner
	})
	return r
}

// KeyHash maps a plan fingerprint onto the ring's key space. Exported so
// tests and tooling can reason about placement directly.
func KeyHash(fingerprint string) uint64 {
	return hash64(ringDomain, "key", fingerprint)
}

// Owner returns the member owning the fingerprint: the first virtual node
// clockwise from the key's hash. ok is false only for an empty ring.
func (r *HashRing) Owner(fingerprint string) (m Member, ok bool) {
	if len(r.points) == 0 {
		return Member{}, false
	}
	kh := KeyHash(fingerprint)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.members[r.points[i].owner], true
}

// Members returns the ring's membership sorted by ID.
func (r *HashRing) Members() []Member {
	return append([]Member(nil), r.members...)
}

// OwnedPermille returns how much of the key space the member owns, in
// thousandths — the "ownership size" gauge a shard publishes. A member
// absent from the ring owns 0.
func (r *HashRing) OwnedPermille(id string) int64 {
	if len(r.points) == 0 {
		return 0
	}
	var owned uint64
	for i, p := range r.points {
		// The arc ending at point i is owned by point i's member.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc := p.hash - prev // wraps correctly in uint64 arithmetic
		if r.members[p.owner].ID == id {
			owned += arc
		}
	}
	// owned / 2^64 * 1000, computed without overflow.
	return int64(float64(owned) / (1 << 64) * 1000)
}
