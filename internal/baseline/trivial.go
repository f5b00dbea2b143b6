package baseline

import (
	"fmt"
	"net"
	"sort"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/metric"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// TrivialClient implements the strawman of Section 3: every search downloads
// the complete encrypted collection, decrypts it, and scans. Perfect privacy
// — the server learns nothing beyond the collection size — but the
// communication cost is the whole data set per query, which is why "it
// cannot be used in real applications".
//
// It runs against the encrypted-deployment server: the collection is the
// same encrypted M-Index store, fetched via MsgDownloadAll.
type TrivialClient struct {
	conn *wire.CountingConn
	key  *secret.Key
}

// DialTrivial connects a trivial client to the encrypted server at addr.
func DialTrivial(addr string, key *secret.Key) (*TrivialClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TrivialClient{conn: wire.NewCountingConn(conn), key: key}, nil
}

// Close releases the connection.
func (c *TrivialClient) Close() error { return c.conn.Close() }

// download fetches and decrypts the full collection.
func (c *TrivialClient) download(costs *stats.Costs) ([]metric.Object, error) {
	sentBefore, recvBefore := c.conn.BytesWritten(), c.conn.BytesRead()
	ioStart := time.Now()
	if err := wire.WriteFrame(c.conn, wire.MsgDownloadAll, nil); err != nil {
		return nil, err
	}
	respType, resp, err := wire.ReadFrame(c.conn)
	costs.CommTime += time.Since(ioStart)
	costs.BytesSent += c.conn.BytesWritten() - sentBefore
	costs.BytesReceived += c.conn.BytesRead() - recvBefore
	costs.RoundTrips++
	if err != nil {
		return nil, err
	}
	if respType == wire.MsgError {
		m, derr := wire.DecodeErrorResp(resp)
		if derr != nil {
			return nil, derr
		}
		return nil, &wire.RemoteError{Msg: m.Msg}
	}
	if respType != wire.MsgCandidates {
		return nil, fmt.Errorf("baseline: unexpected download response %v", respType)
	}
	m, err := wire.DecodeCandidatesResp(resp)
	if err != nil {
		return nil, err
	}
	creditServer(costs, m.ServerNanos)
	objs, err := decryptEntries(c.key, m.Entries, costs)
	if err != nil {
		return nil, err
	}
	costs.Candidates += int64(len(m.Entries))
	return objs, nil
}

// KNN downloads everything and scans for the k nearest neighbors.
func (c *TrivialClient) KNN(q metric.Vector, dist metric.Distance, k int) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if k <= 0 {
		return nil, costs, fmt.Errorf("baseline: k must be positive, got %d", k)
	}
	objs, err := c.download(&costs)
	if err != nil {
		return nil, costs, err
	}
	results := make([]core.Result, 0, len(objs))
	distStart := time.Now()
	for _, o := range objs {
		results = append(results, core.Result{ID: o.ID, Dist: dist.Dist(q, o.Vec), Object: o})
	}
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(len(objs))
	sort.Slice(results, func(i, j int) bool { return results[i].Dist < results[j].Dist })
	if len(results) > k {
		results = results[:k]
	}
	finishCosts(&costs, start)
	return results, costs, nil
}

// Range downloads everything and scans for objects within radius r.
func (c *TrivialClient) Range(q metric.Vector, dist metric.Distance, r float64) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	objs, err := c.download(&costs)
	if err != nil {
		return nil, costs, err
	}
	var results []core.Result
	distStart := time.Now()
	for _, o := range objs {
		if d := dist.Dist(q, o.Vec); d <= r {
			results = append(results, core.Result{ID: o.ID, Dist: d, Object: o})
		}
	}
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(len(objs))
	sort.Slice(results, func(i, j int) bool { return results[i].Dist < results[j].Dist })
	finishCosts(&costs, start)
	return results, costs, nil
}
