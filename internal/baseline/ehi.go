// Package baseline implements the secure similarity-search techniques the
// paper compares against (Section 3 and Section 5.4):
//
//   - EHI, the Encrypted Hierarchical Index of Yiu et al.: an ordinary
//     hierarchical metric index whose every node is encrypted; the server is
//     a pure blob store and the client drives the traversal, paying one
//     round trip per visited node.
//   - FDH, the Flexible Distance-based Hashing of Yiu et al.: objects are
//     hashed by membership in anchor balls to bucket signatures; the server
//     groups ciphertexts by signature and the client fetches buckets in
//     growing signature (Hamming) distance, refining locally — an
//     approximate technique.
//   - Trivial: download the entire encrypted collection and scan locally —
//     perfect privacy, maximal communication (Section 3's strawman).
//
// The referenced implementations are not available; these are re-built from
// the published descriptions and run over the same wire protocol, server
// and cipher as the Encrypted M-Index, so the Table 9 comparison measures
// algorithmic differences rather than implementation accidents.
package baseline

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sort"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// ehiRouting is one routing entry of an internal EHI node: a center object,
// the covering radius of its subtree, and the child node ID.
type ehiRouting struct {
	Center metric.Vector
	Radius float64
	Child  uint64
}

// ehiNode is the plaintext form of one EHI node; it is serialized and
// encrypted before upload, so the server sees only opaque blobs.
type ehiNode struct {
	Leaf    bool
	Routing []ehiRouting    // internal nodes
	Objects []metric.Object // leaves
}

func encodeEHINode(n *ehiNode) []byte {
	var b wire.Buffer
	if n.Leaf {
		b.U8(1)
		b.U32(uint32(len(n.Objects)))
		for _, o := range n.Objects {
			b.U64(o.ID)
			b.Vec(o.Vec)
		}
		return b.B
	}
	b.U8(0)
	b.U32(uint32(len(n.Routing)))
	for _, rt := range n.Routing {
		b.Vec(rt.Center)
		b.F64(rt.Radius)
		b.U64(rt.Child)
	}
	return b.B
}

func decodeEHINode(p []byte) (*ehiNode, error) {
	r := wire.NewReader(p)
	leaf := r.U8()
	n := &ehiNode{Leaf: leaf == 1}
	count := int(r.U32())
	if count < 0 || count > len(p) {
		return nil, wire.ErrCodec
	}
	if n.Leaf {
		for range count {
			id := r.U64()
			vec := r.VecField()
			n.Objects = append(n.Objects, metric.Object{ID: id, Vec: vec})
		}
	} else {
		for range count {
			center := r.VecField()
			radius := r.F64()
			child := r.U64()
			n.Routing = append(n.Routing, ehiRouting{Center: center, Radius: radius, Child: child})
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return n, nil
}

// EHIBuild bulk-loads an encrypted hierarchical index: objects are
// recursively clustered around randomly sampled centers (fanout per node,
// at most leafCap objects per leaf) and every node is encrypted under key.
// Returns the root node ID and the encrypted node blobs for upload.
func EHIBuild(rng *rand.Rand, dist metric.Distance, objs []metric.Object,
	key *secret.Key, fanout, leafCap int) (uint64, []wire.EHINode, error) {
	if fanout < 2 {
		return 0, nil, fmt.Errorf("baseline: EHI fanout must be >= 2, got %d", fanout)
	}
	if leafCap < 1 {
		return 0, nil, fmt.Errorf("baseline: EHI leaf capacity must be >= 1, got %d", leafCap)
	}
	var nodes []wire.EHINode
	nextID := uint64(0)
	var build func(subset []metric.Object) (uint64, error)
	build = func(subset []metric.Object) (uint64, error) {
		id := nextID
		nextID++
		nodes = append(nodes, wire.EHINode{ID: id}) // reserve slot
		slot := len(nodes) - 1
		var n ehiNode
		if len(subset) <= leafCap {
			n = ehiNode{Leaf: true, Objects: subset}
		} else {
			// Sample fanout distinct centers.
			perm := rng.Perm(len(subset))
			k := min(fanout, len(subset))
			centers := make([]metric.Vector, k)
			for i := range k {
				centers[i] = subset[perm[i]].Vec
			}
			groups := make([][]metric.Object, k)
			radii := make([]float64, k)
			for _, o := range subset {
				best, bestD := 0, math.Inf(1)
				for i, c := range centers {
					if d := dist.Dist(o.Vec, c); d < bestD {
						best, bestD = i, d
					}
				}
				groups[best] = append(groups[best], o)
				if bestD > radii[best] {
					radii[best] = bestD
				}
			}
			for i, g := range groups {
				if len(g) == 0 {
					continue
				}
				// A group equal to the whole subset cannot shrink further
				// (duplicate-heavy data); force a leaf to guarantee progress.
				var childID uint64
				var err error
				if len(g) == len(subset) {
					childID = nextID
					nextID++
					blob, serr := key.Seal(encodeEHINode(&ehiNode{Leaf: true, Objects: g}))
					if serr != nil {
						return 0, serr
					}
					nodes = append(nodes, wire.EHINode{ID: childID, Blob: blob})
				} else {
					childID, err = build(g)
					if err != nil {
						return 0, err
					}
				}
				n.Routing = append(n.Routing, ehiRouting{
					Center: centers[i], Radius: radii[i], Child: childID,
				})
			}
		}
		blob, err := key.Seal(encodeEHINode(&n))
		if err != nil {
			return 0, err
		}
		nodes[slot].Blob = blob
		return id, nil
	}
	root, err := build(objs)
	if err != nil {
		return 0, nil, err
	}
	return root, nodes, nil
}

// EHIClient drives the client-side search over an uploaded EHI. All
// traversal logic, decryption and distance computation happen here; the
// server only serves blobs.
type EHIClient struct {
	conn *wire.CountingConn
	key  *secret.Key
	dist metric.Distance
	root uint64
}

// DialEHI connects an EHI client to the blob server at addr.
func DialEHI(addr string, key *secret.Key, dist metric.Distance) (*EHIClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &EHIClient{conn: wire.NewCountingConn(conn), key: key, dist: dist}, nil
}

// Close releases the connection.
func (c *EHIClient) Close() error { return c.conn.Close() }

// Upload ships the encrypted nodes to the server and records the root.
func (c *EHIClient) Upload(rootID uint64, nodes []wire.EHINode) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	respType, resp, err := c.roundTrip(wire.MsgPutNodes,
		wire.PutNodesReq{RootID: rootID, Nodes: nodes}.Encode(), &costs)
	if err != nil {
		return costs, err
	}
	if respType != wire.MsgAck {
		return costs, fmt.Errorf("baseline: unexpected upload response %v", respType)
	}
	ack, err := wire.DecodeAckResp(resp)
	if err != nil {
		return costs, err
	}
	c.root = rootID
	creditServer(&costs, ack.ServerNanos)
	finishCosts(&costs, start)
	return costs, nil
}

func (c *EHIClient) roundTrip(t wire.MsgType, payload []byte, costs *stats.Costs) (wire.MsgType, []byte, error) {
	sentBefore, recvBefore := c.conn.BytesWritten(), c.conn.BytesRead()
	ioStart := time.Now()
	if err := wire.WriteFrame(c.conn, t, payload); err != nil {
		return 0, nil, err
	}
	respType, resp, err := wire.ReadFrame(c.conn)
	costs.CommTime += time.Since(ioStart)
	costs.BytesSent += c.conn.BytesWritten() - sentBefore
	costs.BytesReceived += c.conn.BytesRead() - recvBefore
	costs.RoundTrips++
	if err != nil {
		return 0, nil, err
	}
	if respType == wire.MsgError {
		m, derr := wire.DecodeErrorResp(resp)
		if derr != nil {
			return 0, nil, derr
		}
		return 0, nil, &wire.RemoteError{Msg: m.Msg}
	}
	return respType, resp, nil
}

// fetchNode retrieves and decrypts one node (one round trip).
func (c *EHIClient) fetchNode(id uint64, costs *stats.Costs) (*ehiNode, error) {
	respType, resp, err := c.roundTrip(wire.MsgGetNode, wire.GetNodeReq{ID: id}.Encode(), costs)
	if err != nil {
		return nil, err
	}
	if respType != wire.MsgNodeBlob {
		return nil, fmt.Errorf("baseline: unexpected node response %v", respType)
	}
	m, err := wire.DecodeNodeBlobResp(resp)
	if err != nil {
		return nil, err
	}
	creditServer(costs, m.ServerNanos)
	decStart := time.Now()
	pt, err := c.key.Open(m.Blob)
	costs.DecryptTime += time.Since(decStart)
	if err != nil {
		return nil, fmt.Errorf("baseline: decrypting node %d: %w", id, err)
	}
	return decodeEHINode(pt)
}

// ehiPQ orders pending node fetches by metric lower bound.
type ehiPQItem struct {
	id uint64
	lb float64
}
type ehiPQ []ehiPQItem

func (q ehiPQ) Len() int           { return len(q) }
func (q ehiPQ) Less(i, j int) bool { return q[i].lb < q[j].lb }
func (q ehiPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *ehiPQ) Push(x any)        { *q = append(*q, x.(ehiPQItem)) }
func (q *ehiPQ) Pop() any {
	old := *q
	item := old[len(old)-1]
	*q = old[:len(old)-1]
	return item
}

// KNN evaluates an exact k-NN by best-first traversal: the client fetches
// and decrypts nodes in order of their lower-bound distance until no
// remaining subtree can improve the k-th best answer.
func (c *EHIClient) KNN(q metric.Vector, k int) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if k <= 0 {
		return nil, costs, fmt.Errorf("baseline: k must be positive, got %d", k)
	}
	var best []core.Result
	radius := math.Inf(1)
	offer := func(o metric.Object, d float64) {
		best = append(best, core.Result{ID: o.ID, Dist: d, Object: o})
		sort.Slice(best, func(i, j int) bool { return best[i].Dist < best[j].Dist })
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			radius = best[k-1].Dist
		}
	}
	pq := &ehiPQ{{id: c.root, lb: 0}}
	heap.Init(pq)
	for pq.Len() > 0 {
		item := heap.Pop(pq).(ehiPQItem)
		if item.lb > radius {
			break
		}
		node, err := c.fetchNode(item.id, &costs)
		if err != nil {
			return nil, costs, err
		}
		if node.Leaf {
			for _, o := range node.Objects {
				distStart := time.Now()
				d := c.dist.Dist(q, o.Vec)
				costs.DistCompTime += time.Since(distStart)
				costs.DistComps++
				if d <= radius || len(best) < k {
					offer(o, d)
				}
			}
			costs.Candidates += int64(len(node.Objects))
			continue
		}
		for _, rt := range node.Routing {
			distStart := time.Now()
			d := c.dist.Dist(q, rt.Center)
			costs.DistCompTime += time.Since(distStart)
			costs.DistComps++
			lb := math.Max(item.lb, d-rt.Radius)
			if lb <= radius {
				heap.Push(pq, ehiPQItem{id: rt.Child, lb: lb})
			}
		}
	}
	finishCosts(&costs, start)
	return best, costs, nil
}

// Range evaluates an exact range query by pruned traversal.
func (c *EHIClient) Range(q metric.Vector, r float64) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	var out []core.Result
	var visit func(id uint64) error
	visit = func(id uint64) error {
		node, err := c.fetchNode(id, &costs)
		if err != nil {
			return err
		}
		if node.Leaf {
			for _, o := range node.Objects {
				distStart := time.Now()
				d := c.dist.Dist(q, o.Vec)
				costs.DistCompTime += time.Since(distStart)
				costs.DistComps++
				if d <= r {
					out = append(out, core.Result{ID: o.ID, Dist: d, Object: o})
				}
			}
			costs.Candidates += int64(len(node.Objects))
			return nil
		}
		for _, rt := range node.Routing {
			distStart := time.Now()
			d := c.dist.Dist(q, rt.Center)
			costs.DistCompTime += time.Since(distStart)
			costs.DistComps++
			if d <= rt.Radius+r {
				if err := visit(rt.Child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := visit(c.root); err != nil {
		return nil, costs, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	finishCosts(&costs, start)
	return out, costs, nil
}

func creditServer(costs *stats.Costs, serverNanos uint64) {
	st := time.Duration(serverNanos)
	costs.ServerTime += st
	costs.CommTime -= st
	if costs.CommTime < 0 {
		costs.CommTime = 0
	}
}

func finishCosts(costs *stats.Costs, start time.Time) {
	costs.Overall = time.Since(start)
	costs.ClientTime = costs.Overall - costs.ServerTime - costs.CommTime
	if costs.ClientTime < 0 {
		costs.ClientTime = 0
	}
}

// decryptEntries decrypts downloaded candidates as one batch through the
// key's OpenObjects, charging DecryptTime once for the whole phase — the
// two-phase timing of core's refine — instead of with two clock reads per
// candidate. The objects share one slab of their own.
func decryptEntries(key *secret.Key, entries []mindex.Entry, costs *stats.Costs) ([]metric.Object, error) {
	cts := make([][]byte, len(entries))
	for i, e := range entries {
		cts[i] = e.Payload
	}
	objs := make([]metric.Object, len(entries))
	decStart := time.Now()
	_, err := key.OpenObjects(cts, objs, nil)
	costs.DecryptTime += time.Since(decStart)
	if err != nil {
		var be *secret.BatchError
		if errors.As(err, &be) {
			return nil, fmt.Errorf("baseline: decrypting candidate %d: %w", entries[be.Index].ID, be.Err)
		}
		return nil, fmt.Errorf("baseline: decrypting candidates: %w", err)
	}
	return objs, nil
}
