package baseline

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"net"
	"sort"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/metric"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// FDHParams is the client-side secret of the FDH scheme: the anchor objects
// and their ball radii. Together with the cipher key they let authorized
// clients compute bucket signatures; the server sees only opaque 64-bit keys
// and ciphertexts.
type FDHParams struct {
	Anchors []metric.Vector
	Radii   []float64
	Dist    metric.Distance
}

// NewFDHParams samples numAnchors anchors from the data and sets each
// anchor's radius to the median of its distances to a data sample, which
// balances the signature bits (each bit is ~50/50), maximizing bucket
// discrimination.
func NewFDHParams(rng *rand.Rand, dist metric.Distance, data []metric.Object, numAnchors int) (*FDHParams, error) {
	if numAnchors < 1 || numAnchors > 64 {
		return nil, fmt.Errorf("baseline: FDH anchors must be in 1..64, got %d", numAnchors)
	}
	if len(data) < numAnchors {
		return nil, fmt.Errorf("baseline: cannot sample %d anchors from %d objects", numAnchors, len(data))
	}
	perm := rng.Perm(len(data))
	p := &FDHParams{Dist: dist}
	sampleSize := min(len(data), 500)
	for i := range numAnchors {
		anchor := data[perm[i]].Vec.Clone()
		dists := make([]float64, 0, sampleSize)
		for range sampleSize {
			o := data[rng.IntN(len(data))].Vec
			dists = append(dists, dist.Dist(anchor, o))
		}
		sort.Float64s(dists)
		p.Anchors = append(p.Anchors, anchor)
		p.Radii = append(p.Radii, dists[len(dists)/2])
	}
	return p, nil
}

// Signature maps a vector to its bucket key: bit i is set iff the object
// lies inside anchor i's ball.
func (p *FDHParams) Signature(v metric.Vector) uint64 {
	var sig uint64
	for i, a := range p.Anchors {
		if p.Dist.Dist(a, v) <= p.Radii[i] {
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// FDHBuild encrypts every object and files it under its signature bucket.
func FDHBuild(p *FDHParams, key *secret.Key, objs []metric.Object) ([]wire.FDHItem, error) {
	items := make([]wire.FDHItem, 0, len(objs))
	for _, o := range objs {
		payload, err := key.EncryptObject(o)
		if err != nil {
			return nil, fmt.Errorf("baseline: encrypting object %d: %w", o.ID, err)
		}
		items = append(items, wire.FDHItem{Key: p.Signature(o.Vec), Payload: payload})
	}
	return items, nil
}

// FDHClient drives the FDH search: it fetches buckets in growing Hamming
// distance from the query signature and refines the decrypted objects
// locally. The scheme is approximate — objects whose signature differs in
// many bits are never retrieved.
type FDHClient struct {
	conn   *wire.CountingConn
	key    *secret.Key
	params *FDHParams
}

// DialFDH connects an FDH client to the bucket server at addr.
func DialFDH(addr string, key *secret.Key, params *FDHParams) (*FDHClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &FDHClient{conn: wire.NewCountingConn(conn), key: key, params: params}, nil
}

// Close releases the connection.
func (c *FDHClient) Close() error { return c.conn.Close() }

// Upload ships the encrypted bucket table to the server.
func (c *FDHClient) Upload(items []wire.FDHItem) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	respType, resp, err := c.roundTrip(wire.MsgPutFDH, wire.PutFDHReq{Items: items}.Encode(), &costs)
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
	creditServer(&costs, ack.ServerNanos)
	finishCosts(&costs, start)
	return costs, nil
}

func (c *FDHClient) roundTrip(t wire.MsgType, payload []byte, costs *stats.Costs) (wire.MsgType, []byte, error) {
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

// keysAtHamming enumerates all signatures at exactly Hamming distance h from
// sig over m bits.
func keysAtHamming(sig uint64, m, h int) []uint64 {
	var out []uint64
	var rec func(start int, remaining int, cur uint64)
	rec = func(start, remaining int, cur uint64) {
		if remaining == 0 {
			out = append(out, cur)
			return
		}
		for i := start; i <= m-remaining; i++ {
			rec(i+1, remaining-1, cur^(1<<uint(i)))
		}
	}
	rec(0, h, sig)
	return out
}

// KNN evaluates an approximate k-NN: buckets are fetched level by level
// (Hamming distance 0, 1, 2, …) until at least candTarget candidate objects
// have been retrieved or maxHamming is exhausted; the decrypted candidates
// are then refined locally.
func (c *FDHClient) KNN(q metric.Vector, k, candTarget, maxHamming int) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if k <= 0 {
		return nil, costs, fmt.Errorf("baseline: k must be positive, got %d", k)
	}
	if candTarget < k {
		candTarget = k
	}
	m := len(c.params.Anchors)
	if maxHamming > m {
		maxHamming = m
	}
	distStart := time.Now()
	sig := c.params.Signature(q)
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(m)

	var results []core.Result
	retrieved := 0
	for h := 0; h <= maxHamming && retrieved < candTarget; h++ {
		keys := keysAtHamming(sig, m, h)
		respType, resp, err := c.roundTrip(wire.MsgFDHQuery, wire.FDHQueryReq{Keys: keys}.Encode(), &costs)
		if err != nil {
			return nil, costs, err
		}
		if respType != wire.MsgCandidates {
			return nil, costs, fmt.Errorf("baseline: unexpected FDH response %v", respType)
		}
		mres, err := wire.DecodeCandidatesResp(resp)
		if err != nil {
			return nil, costs, err
		}
		creditServer(&costs, mres.ServerNanos)
		objs, err := decryptEntries(c.key, mres.Entries, &costs)
		if err != nil {
			return nil, costs, err
		}
		distStart := time.Now()
		for _, o := range objs {
			results = append(results, core.Result{ID: o.ID, Dist: c.params.Dist.Dist(q, o.Vec), Object: o})
		}
		costs.DistCompTime += time.Since(distStart)
		costs.DistComps += int64(len(objs))
		retrieved += len(mres.Entries)
		costs.Candidates += int64(len(mres.Entries))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Dist < results[j].Dist })
	if len(results) > k {
		results = results[:k]
	}
	finishCosts(&costs, start)
	return results, costs, nil
}

// SignatureBits reports the Hamming weight of a signature (diagnostics).
func SignatureBits(sig uint64) int { return bits.OnesCount64(sig) }
