package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// Result is one refined similarity-search answer on the client.
type Result struct {
	ID     uint64
	Dist   float64
	Object metric.Object
}

// Options configures an encrypted client.
type Options struct {
	// PrefixLen is the permutation-prefix length stored with each object.
	// It must be at least the server index's MaxLevel. Shorter prefixes
	// shrink records and communication; the full permutation (NumPivots)
	// maximizes future re-partitioning freedom. Default: MaxLevel.
	PrefixLen int
	// StoreDists ships the full object–pivot distance vector with every
	// insert (the paper's "precise strategy", Algorithm 1 line 4). It
	// enables server-side pivot filtering for range queries at the price of
	// larger records. Default: permutations only (Algorithm 1 line 7).
	StoreDists bool
	// Ranking must match the server's configured cell-ranking strategy: it
	// decides whether approximate queries send the query permutation
	// (footrule) or the query distance vector (distance-sum).
	Ranking mindex.RankStrategy
	// MaxLevel mirrors the server index's MaxLevel (prefix floor).
	MaxLevel int
	// Workers parallelizes the client-side construction work (pivot
	// distances + encryption) across goroutines during Insert. Results are
	// identical for any value; reported EncryptTime/DistCompTime become
	// summed CPU time across workers. Default 1 (the paper's single-client
	// measurement setup).
	Workers int
	// BatchChunk is the number of queries (SearchBatch) or entries
	// (InsertBatch) carried per pipelined frame. Smaller chunks let the
	// server start answering earlier; larger chunks amortize more framing.
	// Default 64.
	BatchChunk int
	// StreamWindow is the maximum number of unacknowledged chunks a
	// streamed ingest (InsertStream) keeps in flight. A deeper window hides
	// more server build time behind client-side preparation at the price of
	// more unflushed state on a crashed connection. Default 4.
	StreamWindow int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxLevel == 0 {
		out.MaxLevel = 8
	}
	if out.PrefixLen == 0 {
		out.PrefixLen = out.MaxLevel
	}
	if out.Ranking == 0 {
		out.Ranking = mindex.RankFootrule
	}
	if out.Workers == 0 {
		out.Workers = 1
	}
	if out.BatchChunk == 0 {
		out.BatchChunk = 64
	}
	if out.StreamWindow == 0 {
		out.StreamWindow = 4
	}
	return out
}

// coder performs the client-side half of the paper's algorithms — pivot
// distances, permutations, encryption on the way in; decryption and true
// distances on the way out. It is what makes a client "authorized": the
// networked EncryptedClient and the in-process DirectClient share it
// verbatim, so the two backends produce bit-identical entries and
// refinements.
type coder struct {
	key  *secret.Key
	opts Options
}

// Key returns the client's secret key.
func (c *coder) Key() *secret.Key { return c.key }

// EncryptedClient is an authorized client of the encrypted similarity
// cloud. It is safe for concurrent use: operations lease connections from
// an internal pool (dialed on demand, reused when idle), so N goroutines
// sharing one client run N concurrent exchanges instead of racing on one
// socket.
type EncryptedClient struct {
	coder
	addr string
	pool *connPool
}

var _ Searcher = (*EncryptedClient)(nil)

// DialEncrypted connects an authorized client holding key to the encrypted
// server at addr. Equivalent to DialEncryptedContext with the background
// context.
func DialEncrypted(addr string, key *secret.Key, opts Options) (*EncryptedClient, error) {
	return DialEncryptedContext(context.Background(), addr, key, opts)
}

// DialEncryptedContext connects an authorized client holding key to the
// encrypted server at addr. The first connection is established eagerly
// under ctx — including a hello handshake verifying the server runs the
// encrypted deployment over the key's pivot count — so an unreachable or
// incompatible cloud fails here, not on the first query. Further
// connections are dialed on demand as concurrent operations need them.
func DialEncryptedContext(ctx context.Context, addr string, key *secret.Key, opts Options) (*EncryptedClient, error) {
	o := opts.withDefaults()
	if o.PrefixLen < o.MaxLevel {
		return nil, fmt.Errorf("core: PrefixLen %d below index MaxLevel %d", o.PrefixLen, o.MaxLevel)
	}
	if o.PrefixLen > key.Pivots().N() {
		o.PrefixLen = key.Pivots().N()
	}
	c := &EncryptedClient{coder: coder{key: key, opts: o}, addr: addr}
	c.pool = newConnPool(func(ctx context.Context) (*wire.CountingConn, error) {
		return dialAndHello(ctx, addr, wire.HelloModeEncrypted, key.Pivots().N())
	})
	conn, err := c.pool.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.pool.putIdle(conn)
	return c, nil
}

// Addr returns the server address the client dials.
func (c *EncryptedClient) Addr() string { return c.addr }

// PoolStats reports the connection-lease pool's current depth and lifetime
// dial/discard counters (see PoolStats; surfaced per backend through
// CollectStats and the gateway's /metrics endpoint).
func (c *EncryptedClient) PoolStats() PoolStats { return c.pool.stats() }

// Close releases every pooled connection, interrupting in-flight
// operations.
func (c *EncryptedClient) Close() error { return c.pool.close() }

// roundTrip sends one request and reads one response on a pooled
// connection, measuring the time spent on the wire and the bytes in both
// directions. ctx bounds the whole exchange.
func (c *EncryptedClient) roundTrip(ctx context.Context, t wire.MsgType, payload []byte, costs *stats.Costs) (wire.MsgType, []byte, error) {
	var respType wire.MsgType
	var resp []byte
	err := c.pool.withConn(ctx, func(conn *wire.CountingConn) error {
		var err error
		respType, resp, err = roundTrip(ctx, conn, t, payload, costs)
		return err
	})
	return respType, resp, err
}

// roundTrip is one request/response exchange on conn under ctx: the
// context's deadline becomes the connection's read/write deadline for this
// round trip, and cancellation interrupts a blocked read.
func roundTrip(ctx context.Context, conn *wire.CountingConn, t wire.MsgType, payload []byte, costs *stats.Costs) (wire.MsgType, []byte, error) {
	disarm, err := wire.ArmContext(ctx, conn)
	if err != nil {
		return 0, nil, err
	}
	sentBefore, recvBefore := conn.BytesWritten(), conn.BytesRead()
	ioStart := time.Now()
	respType, resp, err := func() (wire.MsgType, []byte, error) {
		if err := wire.WriteFrame(conn, t, payload); err != nil {
			return 0, nil, err
		}
		return wire.ReadFrame(conn)
	}()
	ioTime := time.Since(ioStart)
	costs.CommTime += ioTime // server time is subtracted by the caller
	costs.BytesSent += conn.BytesWritten() - sentBefore
	costs.BytesReceived += conn.BytesRead() - recvBefore
	costs.RoundTrips++
	if err = disarm(err); err != nil {
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

// creditServer moves the server-reported processing time out of the
// measured wire time.
func creditServer(costs *stats.Costs, serverNanos uint64) {
	st := time.Duration(serverNanos)
	costs.ServerTime += st
	costs.CommTime -= st
	if costs.CommTime < 0 {
		costs.CommTime = 0
	}
}

// prepareEntry performs the per-object client work of Algorithm 1: pivot
// distances, permutation prefix, encryption.
func (c *coder) prepareEntry(o metric.Object, costs *stats.Costs) (mindex.Entry, error) {
	pv := c.key.Pivots()
	distStart := time.Now()
	dists := pv.Distances(o.Vec) // Alg. 1 line 1
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(pv.N())

	perm := pivot.Permutation(dists) // Alg. 1 line 6

	encStart := time.Now()
	payload, err := c.key.EncryptObject(o) // Alg. 1 line 8
	costs.EncryptTime += time.Since(encStart)
	if err != nil {
		return mindex.Entry{}, fmt.Errorf("core: encrypting object %d: %w", o.ID, err)
	}
	e := mindex.Entry{
		ID:      o.ID,
		Perm:    pivot.Prefix(perm, c.opts.PrefixLen),
		Payload: payload,
	}
	if c.opts.StoreDists {
		// Alg. 1 line 4 (precise strategy). When the key carries a
		// distribution-hiding transformation, the server receives only
		// transformed distances (privacy level 4; see internal/transform).
		e.Dists = c.key.TransformDists(dists)
	}
	return e, nil
}

// prepareEntries runs the per-object client work of Algorithm 1 over the
// whole batch, across Options.Workers goroutines when configured.
func (c *coder) prepareEntries(objs []metric.Object, costs *stats.Costs) ([]mindex.Entry, error) {
	entries := make([]mindex.Entry, len(objs))
	if c.opts.Workers <= 1 || len(objs) < 2 {
		for i, o := range objs {
			e, err := c.prepareEntry(o, costs)
			if err != nil {
				return nil, err
			}
			entries[i] = e
		}
		return entries, nil
	}
	workers := min(c.opts.Workers, len(objs))
	type workerResult struct {
		costs stats.Costs
		err   error
	}
	results := make([]workerResult, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[w]
			for i := w; i < len(objs); i += workers {
				e, err := c.prepareEntry(objs[i], &r.costs)
				if err != nil {
					r.err = err
					return
				}
				entries[i] = e
			}
		}()
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		costs.Accumulate(r.costs)
	}
	return entries, nil
}

// Insert performs the encrypted bulk insert of Algorithm 1 (see
// InsertContext) without a deadline.
func (c *EncryptedClient) Insert(objs []metric.Object) (stats.Costs, error) {
	return c.InsertContext(context.Background(), objs)
}

// InsertContext performs the encrypted bulk insert of Algorithm 1: per
// object, the client computes pivot distances, derives the permutation
// prefix, encrypts the object, and ships the entries to the server. ctx
// bounds the round trip.
func (c *EncryptedClient) InsertContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	entries, err := c.prepareEntries(objs, &costs)
	if err != nil {
		return costs, err
	}
	respType, resp, err := c.roundTrip(ctx, wire.MsgInsertEntries, wire.InsertEntriesReq{Entries: entries}.Encode(), &costs)
	if err != nil {
		return costs, err
	}
	if respType != wire.MsgAck {
		return costs, fmt.Errorf("core: unexpected insert response %v", respType)
	}
	ack, err := wire.DecodeAckResp(resp)
	if err != nil {
		return costs, err
	}
	creditServer(&costs, ack.ServerNanos)
	finish(&costs, start)
	return costs, nil
}

// finish completes the cost decomposition: client time is everything not
// spent on the wire, matching the paper's "data encryption/decryption,
// distance computations, and processing overhead".
func finish(costs *stats.Costs, start time.Time) {
	costs.Overall = time.Since(start)
	costs.ClientTime = costs.Overall - costs.ServerTime - costs.CommTime
	if costs.ClientTime < 0 {
		costs.ClientTime = 0
	}
}

// refineScratch is the working set of one refine call, leased from
// refinePool so concurrent queries on one client never share it: the
// candidate ciphertexts, their decrypted objects, the float slab every
// candidate vector is decoded into, and the refined results, whose vectors
// are windows of that slab. Whoever holds it ends with keep or release.
type refineScratch struct {
	cts  [][]byte
	objs []metric.Object
	slab []float32
	res  []Result
}

var refinePool = sync.Pool{New: func() any { return new(refineScratch) }}

// maxPooledSlab bounds the slab a finished refine hands back to the pool
// (in float32s, 8 MiB): a rare huge range answer is left to the garbage
// collector instead of being retained for every later query.
const maxPooledSlab = 1 << 21

// release returns s to the pool, dropping its references to the
// candidates' ciphertexts.
func (s *refineScratch) release() {
	clear(s.cts)
	if cap(s.slab) > maxPooledSlab {
		s.slab = nil
	}
	refinePool.Put(s)
}

// keep copies rs — the surviving results, drawn from s.res — into memory
// of their own, one allocation for the results and one for all of their
// vectors, and then releases s: a returned top-K never pins the slab of
// every candidate decrypted to find it.
func (s *refineScratch) keep(rs []Result) []Result {
	out := make([]Result, len(rs))
	n := 0
	for _, r := range rs {
		n += len(r.Object.Vec)
	}
	vecs := make(metric.Vector, n)
	for i, r := range rs {
		d := len(r.Object.Vec)
		r.Object.Vec = vecs[:d:d]
		copy(r.Object.Vec, rs[i].Object.Vec)
		vecs = vecs[d:]
		out[i] = r
	}
	s.release()
	return out
}

// refine decrypts candidate entries and computes their true distances to
// the query (Algorithm 2, lines 11–16). It is the one refine path of every
// backend. The candidates are decrypted as one batch into a pooled slab
// and the distances computed from it; the two phases are timed once each
// rather than with two clock reads per candidate, which at the paper's
// candidate-set sizes were themselves a measurable distortion of exactly
// the client-side times the Tables report. The results live in the
// returned scratch until the caller's keep or release.
func (c *coder) refine(q metric.Vector, cands []mindex.Entry, costs *stats.Costs) (*refineScratch, error) {
	s := refinePool.Get().(*refineScratch)
	s.cts = s.cts[:0]
	for _, e := range cands {
		s.cts = append(s.cts, e.Payload)
	}
	s.objs = slices.Grow(s.objs[:0], len(cands))[:len(cands)]
	decStart := time.Now()
	slab, err := c.key.OpenObjects(s.cts, s.objs, s.slab[:0])
	costs.DecryptTime += time.Since(decStart)
	s.slab = slab
	if err != nil {
		s.release()
		var be *secret.BatchError
		if errors.As(err, &be) {
			return nil, fmt.Errorf("core: decrypting candidate %d: %w", cands[be.Index].ID, be.Err)
		}
		return nil, fmt.Errorf("core: decrypting candidates: %w", err)
	}
	dist := c.key.Pivots().Dist
	s.res = slices.Grow(s.res[:0], len(cands))[:len(cands)]
	distStart := time.Now()
	for i, o := range s.objs {
		s.res[i] = Result{ID: o.ID, Dist: dist.Dist(q, o.Vec), Object: o}
	}
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(len(cands))
	costs.Candidates += int64(len(cands))
	return s, nil
}

// Legacy query surface. These methods predate the unified Query API and
// remain as thin wrappers over Search so existing callers keep working;
// new code should build a Query and call Search / SearchBatch, which add
// context support (deadlines, cancellation) these entry points lack. See
// DESIGN.md §API for the deprecation policy.

// Range evaluates the precise range query R(q, r): the client reveals only
// the query–pivot distance vector; the server returns pivot-filtered
// candidates that the client decrypts and refines.
//
// Deprecated: use Search with KindRange.
func (c *EncryptedClient) Range(q metric.Vector, r float64) ([]Result, stats.Costs, error) {
	return c.Search(context.Background(), Query{Kind: KindRange, Vec: q, Radius: r})
}

// ApproxKNN evaluates the approximate k-NN query of Algorithm 2: the client
// reveals the query permutation (footrule ranking) or distance vector
// (distance-sum ranking) plus the requested candidate-set size, then refines
// the returned pre-ranked candidates.
//
// Deprecated: use Search with KindApproxKNN.
func (c *EncryptedClient) ApproxKNN(q metric.Vector, k, candSize int) ([]Result, stats.Costs, error) {
	if k <= 0 || candSize <= 0 {
		return nil, stats.Costs{}, fmt.Errorf("core: k and candSize must be positive (k=%d, candSize=%d)", k, candSize)
	}
	return c.Search(context.Background(), Query{Kind: KindApproxKNN, Vec: q, K: k, CandSize: candSize})
}

// ApproxKNNPartial is ApproxKNN with client-side partial refinement: the
// candidate set arrives pre-ranked by cell promise, so the client "can
// choose to decrypt and compute distances only for candidates with the
// highest rank to speed up the search process" (Section 4.2). Only the
// first refineLimit candidates are decrypted and refined; the remainder is
// paid for in communication but not in decryption or distance time.
//
// Deprecated: use Search with KindApproxKNN and RefineLimit.
func (c *EncryptedClient) ApproxKNNPartial(q metric.Vector, k, candSize, refineLimit int) ([]Result, stats.Costs, error) {
	if k <= 0 || candSize <= 0 || refineLimit <= 0 {
		return nil, stats.Costs{}, fmt.Errorf("core: k, candSize and refineLimit must be positive (k=%d candSize=%d refineLimit=%d)",
			k, candSize, refineLimit)
	}
	return c.Search(context.Background(),
		Query{Kind: KindApproxKNN, Vec: q, K: k, CandSize: candSize, RefineLimit: refineLimit})
}

// KNN evaluates the precise k-NN query as Section 4.2 prescribes: an
// approximate k-NN determines ρk, the distance to the k-th candidate
// neighbor (an upper bound on the true k-th neighbor distance), and the
// precise range query R(q, ρk) then guarantees completeness. Two round
// trips; candSize tunes the first phase.
//
// Deprecated: use Search with KindKNN.
func (c *EncryptedClient) KNN(q metric.Vector, k, candSize int) ([]Result, stats.Costs, error) {
	if k <= 0 || candSize <= 0 {
		return nil, stats.Costs{}, fmt.Errorf("core: k and candSize must be positive (k=%d, candSize=%d)", k, candSize)
	}
	return c.Search(context.Background(), Query{Kind: KindKNN, Vec: q, K: k, CandSize: candSize})
}

// FirstCellKNN evaluates the restricted 1-cell approximate k-NN of the
// paper's Section 5.4 comparison: the server contributes exactly one
// Voronoi cell as the candidate set.
//
// Deprecated: use Search with KindFirstCell.
func (c *EncryptedClient) FirstCellKNN(q metric.Vector, k int) ([]Result, stats.Costs, error) {
	if k <= 0 {
		return nil, stats.Costs{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	return c.Search(context.Background(), Query{Kind: KindFirstCell, Vec: q, K: k})
}

// maxRadius is an effectively unbounded query radius.
const maxRadius = 1e300

func sortByDist(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if a.Dist != b.Dist {
			if a.Dist < b.Dist {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}
