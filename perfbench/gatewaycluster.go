package main

import (
	"bufio"
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/gateway"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/stats"
)

const (
	clusterNodes    = 3
	gatewayRate     = 40 // offered operations per second
	gatewayConns    = 1
	gatewayBatch    = 4
	gatewayK        = 10
	gatewayCandSize = 150
	// gatewayPool is the number of held-out queries; the check pass runs
	// them all.
	gatewayPool = 100
	// gatewayWindowQueries is how many pool queries one pass of the open
	// loop walks.
	gatewayWindowQueries = 20
	apiKey               = "perfbench-key"
)

// clusterDep is one deployment of the cluster: 3 encrypted nodes, a
// coordinator storing every entry on 2 of them, and the tenant's encrypted
// client of the coordinator.
type clusterDep struct {
	nodes   []*server.Server
	coord   *cluster.Coordinator
	backend *core.EncryptedClient
}

func (d *clusterDep) Close() {
	if d.backend != nil {
		d.backend.Close()
	}
	if d.coord != nil {
		d.coord.Close()
	}
	for _, n := range d.nodes {
		n.Close()
	}
}

var clusterOpts = core.Options{MaxLevel: humanMaxLevel, StoreDists: true, Ranking: mindex.RankFootrule}

// clusterDeploy hosts the nodes and the coordinator on loopback TCP and
// dials the tenant's client.
func clusterDeploy(key *secret.Key) (d *clusterDep, err error) {
	d = &clusterDep{}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	var addrs []string
	for i := 0; i < clusterNodes; i++ {
		n, err := encServer(mindex.Config{
			NumPivots: humanPivots, MaxLevel: humanMaxLevel, BucketCapacity: humanBucket,
			Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule, EagerRootSplit: true,
		})
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, n)
		addrs = append(addrs, n.Addr())
	}
	if d.coord, err = cluster.New(addrs, cluster.Options{Replicas: 2, Logf: nop}); err != nil {
		return nil, err
	}
	if err := d.coord.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if d.backend, err = core.DialEncrypted(d.coord.Addr(), key, clusterOpts); err != nil {
		return nil, err
	}
	return d, nil
}

type gatewayWorld struct {
	*clusterDep
	key     *secret.Key
	direct  []*core.EncryptedClient // one client per node, for probes
	gw      *gateway.Gateway
	httpSrv *http.Server
	served  chan struct{} // closed when httpSrv.Serve has returned
	http    *httpSearcher
	pool    *pool
	indexed []metric.Object
	dim     int
}

func (w *gatewayWorld) Close() {
	if w.http != nil {
		w.http.Close()
	}
	if w.httpSrv != nil {
		w.httpSrv.Close()
		<-w.served
	}
	if w.gw != nil {
		w.gw.Close()
	}
	for _, c := range w.direct {
		c.Close()
	}
	if w.clusterDep != nil {
		w.clusterDep.Close()
	}
}

// buildGateway deploys the cluster, loads the indexed objects through the
// tenant's client, and puts the gateway in front of that client on a
// loopback HTTP listener.
func buildGateway(ctx context.Context, e *env) (w *gatewayWorld, err error) {
	ds, queries, indexed := humanData(e, gatewayPool)
	w = &gatewayWorld{indexed: indexed, dim: ds.Dim}
	defer func() {
		if err != nil {
			w.Close()
		}
	}()
	pv := deployPivots(ds.Dist, indexed, humanPivots)
	if w.key, err = secret.Generate(pv, secret.ModeCTRHMAC); err != nil {
		return nil, err
	}
	if w.clusterDep, err = clusterDeploy(w.key); err != nil {
		return nil, err
	}
	for _, n := range w.nodes {
		c, err := core.DialEncrypted(n.Addr(), w.key, clusterOpts)
		if err != nil {
			return nil, err
		}
		w.direct = append(w.direct, c)
	}
	if err := load(nil, indexed, loadChunk, w.backend.InsertStream); err != nil {
		return nil, err
	}
	w.gw, err = gateway.New(gateway.Config{Tenants: []gateway.Tenant{{Name: "bench", Key: apiKey, Backend: w.backend}}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.httpSrv = &http.Server{Handler: w.gw, ReadHeaderTimeout: 5 * time.Second}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.httpSrv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	w.http = &httpSearcher{
		base: "http://" + ln.Addr().String(), apiKey: apiKey,
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: gatewayConns, MaxIdleConnsPerHost: gatewayConns, DisableCompression: true,
		}},
	}
	w.pool = &pool{dist: ds.Dist, queries: queries, k: gatewayK}
	if err := warm(ctx, w.http, w.pool, mixQuery(w.pool, gatewayCandSize)); err != nil {
		return nil, err
	}
	return w, nil
}

// runGatewayCluster3 is the only workload through HTTP, admission,
// coordinator fan-out, replica filtering and merge: an open loop at a
// fixed rate well below saturation.
func runGatewayCluster3(ctx context.Context, e *env, rep *report) error {
	w, err := setup(e, rep, func() (*gatewayWorld, error) { return buildGateway(ctx, e) })
	if err != nil {
		return err
	}
	defer w.Close()
	w.pool = groundTruth(w.pool.dist, w.indexed, w.pool.queries, w.pool.k)
	var bytes uint64
	for _, n := range w.nodes {
		bytes += core.EngineStatsOf(n.Index()).Ingest.Bytes
	}
	rep.set("stored_bytes_per_user_byte", float64(bytes)/float64(len(w.indexed)*w.dim*4), len(w.indexed))

	// Whole passes of about the window's length at the offered rate.
	weights := map[opKind]int{opApprox: 3, opKNN: 1, opRange: 1, opBatch: 1}
	_, passLen := schedule(e.seed, 1, min(gatewayWindowQueries, len(w.pool.queries)), gatewayBatch, weights)
	passes := max(1, int(math.Round(gatewayRate*e.window().Seconds()/float64(passLen))))
	ops, _ := w.pool.windowOps(e.seed, passes, gatewayWindowQueries, gatewayBatch, weights)
	r := &runner{s: w.http, p: w.pool, query: mixQuery(w.pool, gatewayCandSize), rep: rep}
	gen := &openLoop{rate: gatewayRate, conns: gatewayConns}
	if e.tr == nil {
		r.report(gen.run(ctx, func(int) *runner { return r }, ops))
	} else {
		// The halves meet at a pass boundary.
		mid := passes / 2 * passLen
		if mid == 0 {
			mid = len(ops) / 2
		}
		tw := newTracedWindow(e, r, passLen, nil)
		gen.run(ctx, tw.at, ops[:mid])
		tw.half()
		gen.run(ctx, tw.at, ops[mid:])
		tw.finish()
		rep.set("loadgen.late_p99_ms", gen.late.quantile(0.99), gen.late.n())
	}
	sent := rep.attempted
	r.checkPass(ctx)
	if e.tr != nil {
		if err := gatewayLayers(ctx, w, rep, sent); err != nil {
			return err
		}
	}
	return measureIngest(rep, e.window()/ingestShare, w.indexed, func() (inserter, func(), error) {
		d, err := clusterDeploy(w.key)
		if err != nil {
			return nil, nil, err
		}
		return d.backend.InsertStream, d.Close, nil
	})
}

// gatewayLayers probes each of the first pool queries, one at a time with
// no other load: over HTTP, through the tenant's backend client, and
// straight to each node. It reports the gateway's and coordinator's
// shares, and reads the gateway's shed and refusal counters.
func gatewayLayers(ctx context.Context, w *gatewayWorld, rep *report, sent int64) error {
	var overhead, coordSrv, nodeMax, client, comm samples
	var approx, knn costSum
	probes := min(50, len(w.pool.queries))
	for qi := 0; qi < probes; qi++ {
		q := mixQuery(w.pool, gatewayCandSize)(opApprox, qi)
		start := time.Now()
		if _, _, err := w.http.Search(ctx, q); err != nil {
			return err
		}
		viaHTTP := time.Since(start)
		start = time.Now()
		_, c, err := w.backend.Search(ctx, q)
		if err != nil {
			return err
		}
		viaBackend := time.Since(start)
		overhead.add(viaHTTP - viaBackend)
		coordSrv.add(c.ServerTime)
		client.add(c.ClientTime)
		comm.add(c.CommTime)
		approx.add(c, 1)
		var worst time.Duration
		for _, d := range w.direct {
			_, nc, err := d.Search(ctx, q)
			if err != nil {
				return err
			}
			worst = max(worst, nc.ServerTime)
		}
		nodeMax.add(worst)
		_, kc, err := w.backend.Search(ctx, mixQuery(w.pool, gatewayCandSize)(opKNN, qi))
		if err != nil {
			return err
		}
		knn.add(kc, 1)
	}
	rep.set("gateway.overhead_ms", overhead.mean(), overhead.n())
	rep.set("cluster.server_ms", coordSrv.mean(), coordSrv.n())
	rep.set("cluster.node_max_ms", nodeMax.mean(), nodeMax.n())
	rep.set("cluster.coord_ms", coordSrv.mean()-nodeMax.mean(), coordSrv.n())
	rep.set("core.client_ms", client.mean(), client.n())
	rep.set("wire.comm_ms", comm.mean(), comm.n())
	rep.set("core.candidates", approx.per(func(c stats.Costs) float64 { return float64(c.Candidates) }), approx.n)
	rep.set("core.round_trips", knn.per(func(c stats.Costs) float64 { return float64(c.RoundTrips) }), knn.n)
	rep.set("wire.bytes_sent", approx.per(func(c stats.Costs) float64 { return float64(c.BytesSent) }), approx.n)
	rep.set("wire.bytes_recv", approx.per(func(c stats.Costs) float64 { return float64(c.BytesReceived) }), approx.n)

	shed, err := scrape(ctx, w.http, "simgate_shed_total")
	if err != nil {
		return err
	}
	rep.set("gateway.shed_frac", shed/float64(sent), int(sent))
	rep.set("gateway.reject_frac", float64(w.http.rejected.Load())/float64(sent), int(sent))
	return nil
}

// scrape sums the gateway's /metrics samples of one metric family.
func scrape(ctx context.Context, h *httpSearcher, family string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, errors.New("gateway /metrics answered " + resp.Status)
	}
	var total float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, sc.Err()
}
