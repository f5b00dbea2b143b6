package server

import (
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/wire"
)

func testCfg() mindex.Config {
	return mindex.Config{
		NumPivots: 6, MaxLevel: 3, BucketCapacity: 10,
		Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
	}
}

func startEncrypted(t *testing.T) *Server {
	t.Helper()
	srv, err := NewEncrypted(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {} // silence expected connection errors
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// request sends one frame and reads one response.
func request(t *testing.T, conn net.Conn, typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	t.Helper()
	if err := wire.WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return respType, resp
}

// batchOf encodes a one-query MsgBatchQuery payload — how every lone
// encrypted query travels.
func batchOf(q wire.BatchQuery) []byte {
	return wire.BatchQueryReq{Queries: []wire.BatchQuery{q}}.Encode()
}

// queryOne sends one encrypted query as a batch of one and returns its
// candidate set.
func queryOne(t *testing.T, conn net.Conn, q wire.BatchQuery) []mindex.Entry {
	t.Helper()
	respType, resp := request(t, conn, wire.MsgBatchQuery, batchOf(q))
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("query kind %d: got %v", q.Kind, respType)
	}
	m, err := wire.DecodeBatchQueryResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != 1 {
		t.Fatalf("batch of one returned %d results", len(m.Results))
	}
	return m.Results[0]
}

func expectError(t *testing.T, conn net.Conn, typ wire.MsgType, payload []byte, contains string) {
	t.Helper()
	respType, resp := request(t, conn, typ, payload)
	if respType != wire.MsgError {
		t.Fatalf("%v: expected error response, got %v", typ, respType)
	}
	m, err := wire.DecodeErrorResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Msg, contains) {
		t.Fatalf("%v: error %q does not mention %q", typ, m.Msg, contains)
	}
}

func TestUnknownMessageType(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	expectError(t, conn, wire.MsgType(250), nil, "unsupported request")
}

func TestGarbagePayloadIsError(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	// A malformed insert payload must produce an error, not kill the server.
	expectError(t, conn, wire.MsgInsertEntries, []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}, "")
	// The connection must still be usable afterwards.
	respType, _ := request(t, conn, wire.MsgDownloadAll, nil)
	if respType != wire.MsgCandidates {
		t.Fatalf("connection dead after error: got %v", respType)
	}
}

func TestModeGuards(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	expectError(t, conn, wire.MsgInsertObjects,
		wire.InsertObjectsReq{Objects: []metric.Object{{ID: 1, Vec: metric.Vector{1}}}}.Encode(),
		"plain")
	expectError(t, conn, wire.MsgPlainQuery,
		wire.PlainQueryReq{Kind: wire.PlainKNN, Q: metric.Vector{1}, K: 1}.Encode(),
		"plain")

	// And the reverse on a plain server.
	ds := dataset.Clustered(1, 50, 2, 2, metric.L1{})
	rng := rand.New(rand.NewPCG(1, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, 6)
	psrv, err := NewPlain(testCfg(), pv)
	if err != nil {
		t.Fatal(err)
	}
	if err := psrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	pconn, err := net.Dial("tcp", psrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pconn.Close()
	if err := wire.WriteFrame(pconn, wire.MsgDownloadAll, nil); err != nil {
		t.Fatal(err)
	}
	respType, _, err := wire.ReadFrame(pconn)
	if err != nil {
		t.Fatal(err)
	}
	if respType != wire.MsgError {
		t.Fatalf("encrypted-only request on plain server: got %v", respType)
	}
}

func TestInvalidPermutationRejected(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	// Duplicate elements: not a permutation.
	expectError(t, conn, wire.MsgBatchQuery,
		batchOf(wire.BatchQuery{Kind: wire.BatchApproxPerm, Perm: []int32{0, 0, 1, 2, 3, 4}, CandSize: 5}),
		"permutation")
	expectError(t, conn, wire.MsgBatchQuery,
		batchOf(wire.BatchQuery{Kind: wire.BatchFirstCell, Perm: []int32{0, 1}}),
		"permutation")
}

// TestDeleteDispatch drives the delete path over the wire: insert entries,
// tombstone a subset, verify searches stop returning them and the ack
// reports the exact count. Hostile references (empty or out-of-range
// routing prefixes) must come back as error responses.
func TestDeleteDispatch(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)

	entries := []mindex.Entry{
		{ID: 1, Perm: []int32{0, 1, 2}, Payload: []byte("a")},
		{ID: 2, Perm: []int32{1, 2, 3}, Payload: []byte("b")},
		{ID: 3, Perm: []int32{2, 3, 4}, Payload: []byte("c")},
		{ID: 4, Perm: []int32{3, 4, 5}, Payload: []byte("d")},
	}
	respType, _ := request(t, conn, wire.MsgInsertEntries, wire.InsertEntriesReq{Entries: entries}.Encode())
	if respType != wire.MsgAck {
		t.Fatalf("insert response = %v", respType)
	}

	// Delete entries 2 and 3, plus an unknown reference (skipped).
	refs := []mindex.Entry{
		{ID: 2, Perm: entries[1].Perm},
		{ID: 3, Perm: entries[2].Perm},
		{ID: 99, Perm: []int32{5, 0, 1}},
	}
	respType, resp := request(t, conn, wire.MsgDeleteEntries, wire.DeleteEntriesReq{Refs: refs}.Encode())
	if respType != wire.MsgDeleteAck {
		t.Fatalf("delete response = %v", respType)
	}
	ack, err := wire.DecodeDeleteAckResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Deleted != 2 {
		t.Fatalf("deleted = %d, want 2", ack.Deleted)
	}
	if srv.Index().Size() != 2 || srv.Index().Dead() != 2 {
		t.Fatalf("index size/dead = %d/%d, want 2/2", srv.Index().Size(), srv.Index().Dead())
	}

	// The tombstoned entries are gone from query responses.
	cands := queryOne(t, conn, wire.BatchQuery{Kind: wire.BatchRange, Dists: make([]float64, 6), Radius: 1e18})
	if len(cands) != 2 {
		t.Fatalf("range returned %d candidates, want 2", len(cands))
	}
	for _, e := range cands {
		if e.ID == 2 || e.ID == 3 {
			t.Fatalf("deleted entry %d still served", e.ID)
		}
	}

	// Hostile references are rejected with an error response, and the
	// connection stays usable.
	expectError(t, conn, wire.MsgDeleteEntries,
		wire.DeleteEntriesReq{Refs: []mindex.Entry{{ID: 7, Perm: []int32{-1, 0, 1}}}}.Encode(),
		"out of range")
	expectError(t, conn, wire.MsgDeleteEntries,
		wire.DeleteEntriesReq{Refs: []mindex.Entry{{ID: 7}}}.Encode(),
		"permutation is empty")
	expectError(t, conn, wire.MsgDeleteEntries, []byte{0xFF, 0xFF}, "")
	if respType, _ := request(t, conn, wire.MsgDeleteEntries,
		wire.DeleteEntriesReq{Refs: nil}.Encode()); respType != wire.MsgDeleteAck {
		t.Fatalf("connection unusable after hostile delete: %v", respType)
	}
}

func TestEHIBlobStore(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	respType, _ := request(t, conn, wire.MsgPutNodes, wire.PutNodesReq{
		RootID: 7,
		Nodes:  []wire.EHINode{{ID: 7, Blob: []byte{1, 2, 3}}, {ID: 8, Blob: []byte{4}}},
	}.Encode())
	if respType != wire.MsgAck {
		t.Fatalf("put-nodes: got %v", respType)
	}
	respType, resp := request(t, conn, wire.MsgGetNode, wire.GetNodeReq{ID: 8}.Encode())
	if respType != wire.MsgNodeBlob {
		t.Fatalf("get-node: got %v", respType)
	}
	m, err := wire.DecodeNodeBlobResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Blob) != 1 || m.Blob[0] != 4 {
		t.Fatalf("blob = %v", m.Blob)
	}
	expectError(t, conn, wire.MsgGetNode, wire.GetNodeReq{ID: 99}.Encode(), "unknown EHI node")
}

func TestFDHBucketStore(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	respType, _ := request(t, conn, wire.MsgPutFDH, wire.PutFDHReq{
		Items: []wire.FDHItem{
			{Key: 1, Payload: []byte{10}},
			{Key: 1, Payload: []byte{11}},
			{Key: 2, Payload: []byte{20}},
		},
	}.Encode())
	if respType != wire.MsgAck {
		t.Fatalf("put-fdh: got %v", respType)
	}
	respType, resp := request(t, conn, wire.MsgFDHQuery,
		wire.FDHQueryReq{Keys: []uint64{1, 3}}.Encode())
	if respType != wire.MsgCandidates {
		t.Fatalf("fdh-query: got %v", respType)
	}
	m, err := wire.DecodeCandidatesResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 2 {
		t.Fatalf("bucket 1 returned %d payloads", len(m.Entries))
	}
}

func TestServerTimeReported(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	entry := mindex.Entry{ID: 1, Perm: []int32{0, 1, 2, 3, 4, 5}, Payload: []byte{1}}
	respType, resp := request(t, conn, wire.MsgInsertEntries,
		wire.InsertEntriesReq{Entries: []mindex.Entry{entry}}.Encode())
	if respType != wire.MsgAck {
		t.Fatalf("insert: got %v", respType)
	}
	ack, err := wire.DecodeAckResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ServerNanos == 0 {
		t.Fatal("server reported zero processing time")
	}
}

func TestDroppedConnectionDoesNotKillServer(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	// Write half a frame and hang up.
	if _, err := conn.Write([]byte{0, 0, 0, 100, 5, 1, 2}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	time.Sleep(10 * time.Millisecond)
	// Server still answers new connections.
	conn2 := dial(t, srv)
	respType, _ := request(t, conn2, wire.MsgDownloadAll, nil)
	if respType != wire.MsgCandidates {
		t.Fatalf("server unhealthy after dropped connection: %v", respType)
	}
}

func TestCloseIdempotentAndRefusesNewWork(t *testing.T) {
	srv, err := NewEncrypted(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
		t.Fatal("closed server still accepting connections")
	}
}

func TestAddrBeforeStart(t *testing.T) {
	srv, err := NewEncrypted(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() != "" {
		t.Fatalf("addr before start = %q", srv.Addr())
	}
	if srv.Mode() != ModeEncrypted {
		t.Fatalf("mode = %v", srv.Mode())
	}
	if ModePlain.String() != "plain" || Mode(9).String() == "" {
		t.Fatal("mode strings broken")
	}
}

// testEntries builds n entries over the 6 pivots of testCfg, spread over
// every first-level cell.
func testEntries(n int) []mindex.Entry {
	entries := make([]mindex.Entry, n)
	for i := range entries {
		perm := []int32{0, 1, 2, 3, 4, 5}
		perm[0], perm[i%6] = perm[i%6], perm[0]
		dists := make([]float64, 6)
		for j := range dists {
			dists[j] = float64((i+j)%17) + 0.5
		}
		entries[i] = mindex.Entry{ID: uint64(i + 1), Perm: perm, Dists: dists, Payload: []byte{byte(i)}}
	}
	return entries
}

func insertTestEntries(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	respType, _ := request(t, conn, wire.MsgInsertEntries,
		wire.InsertEntriesReq{Entries: testEntries(n)}.Encode())
	if respType != wire.MsgAck {
		t.Fatalf("insert: got %v", respType)
	}
}

// TestBatchQuery: one frame carrying a range, an approx-perm and an
// approx-dists query must return three candidate sets matching the
// answers to the same queries sent alone (batches of one).
func TestBatchQuery(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	insertTestEntries(t, conn, 60)

	qDists := []float64{1, 2, 3, 4, 5, 6}
	perm := []int32{2, 0, 1, 3, 4, 5}
	batch := wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchRange, Dists: qDists, Radius: 5},
		{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: 15},
		{Kind: wire.BatchApproxDists, Dists: qDists, CandSize: 10},
	}}
	respType, resp := request(t, conn, wire.MsgBatchQuery, batch.Encode())
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("batch query: got %v", respType)
	}
	m, err := wire.DecodeBatchQueryResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(m.Results))
	}

	// Each batched result must equal the answer to its query sent alone.
	for qi, q := range batch.Queries {
		single := queryOne(t, conn, q)
		if len(m.Results[qi]) != len(single) {
			t.Fatalf("batched query %d returned %d entries, alone %d", qi, len(m.Results[qi]), len(single))
		}
		for i := range single {
			if m.Results[qi][i].ID != single[i].ID {
				t.Fatalf("batched query %d candidate %d = id %d, alone = id %d",
					qi, i, m.Results[qi][i].ID, single[i].ID)
			}
		}
	}
}

// TestBatchQueryErrors: invalid sub-queries fail the whole batch with an
// error response naming the offending query.
func TestBatchQueryErrors(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	expectError(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchApproxPerm, Perm: []int32{0, 0, 1, 2, 3, 4}, CandSize: 5},
	}}.Encode(), "batch query 0")
	// Malformed payload bytes are a codec error, not a crash.
	expectError(t, conn, wire.MsgBatchQuery, []byte{0xFF, 0xFF, 0xFF, 0xFF}, "")
}

// TestShardedServer: a server over a sharded engine answers the protocol
// exactly like the default single-shard one.
func TestShardedServer(t *testing.T) {
	cfg := testCfg()
	cfg.Shards = 4
	srv, err := NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn := dial(t, srv)
	insertTestEntries(t, conn, 80)
	if got := srv.Index().NumShards(); got != 4 {
		t.Fatalf("NumShards = %d", got)
	}
	if got := srv.Index().Size(); got != 80 {
		t.Fatalf("Size = %d", got)
	}
	cands := queryOne(t, conn, wire.BatchQuery{Kind: wire.BatchApproxPerm, Perm: []int32{1, 0, 2, 3, 4, 5}, CandSize: 20})
	if len(cands) != 20 {
		t.Fatalf("sharded approx returned %d candidates, want 20", len(cands))
	}
}

// TestHostilePermutationInsert: a wire entry with a negative or
// out-of-range first permutation element must produce an error response —
// on a sharded server a negative shard index would otherwise panic the
// process (remote DoS).
func TestHostilePermutationInsert(t *testing.T) {
	cfg := testCfg()
	cfg.Shards = 4
	srv, err := NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn := dial(t, srv)
	expectError(t, conn, wire.MsgInsertEntries, wire.InsertEntriesReq{
		Entries: []mindex.Entry{{ID: 1, Perm: []int32{-1, 0, 1, 2, 3}}},
	}.Encode(), "out of range")
	// Server must still be alive and serving.
	insertTestEntries(t, conn, 10)
	if got := srv.Index().Size(); got != 10 {
		t.Fatalf("size after hostile insert = %d", got)
	}
}

// TestCloseRacingConnections: Close racing fresh connection registration
// must neither leak a connection nor deadlock — every accepted conn ends up
// closed and the registry drains (the connMu hygiene regression test).
func TestCloseRacingConnections(t *testing.T) {
	for round := range 20 {
		srv, err := NewEncrypted(testCfg())
		if err != nil {
			t.Fatal(err)
		}
		srv.Logf = func(string, ...any) {}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr()
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return // listener already closed: fine
				}
				defer conn.Close()
				// Fire a request; the response may be an answer, a reset or
				// nothing depending on how far Close got. All are fine — only
				// leaks and races are not.
				_ = wire.WriteFrame(conn, wire.MsgDownloadAll, nil)
				_, _, _ = wire.ReadFrame(conn)
			}()
		}
		if round%2 == 0 {
			time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		srv.connMu.Lock()
		leaked := len(srv.conns)
		srv.connMu.Unlock()
		if leaked != 0 {
			t.Fatalf("round %d: %d connections leaked past Close", round, leaked)
		}
	}
}

// TestStartAfterCloseRefused: a closed server must not come back to life
// with a fresh listener that nothing will ever close.
func TestStartAfterCloseRefused(t *testing.T) {
	srv, err := NewEncrypted(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("start after close succeeded")
	}
}

// TestStartTwiceRefused: a second Start must not replace the listener and
// connection registry of the first (leaked listener, orphaned conns).
func TestStartTwiceRefused(t *testing.T) {
	srv := startEncrypted(t)
	addr := srv.Addr()
	if err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second start succeeded")
	}
	if srv.Addr() != addr {
		t.Fatalf("second start replaced the listener: %s -> %s", addr, srv.Addr())
	}
	// The original listener still serves.
	conn := dial(t, srv)
	respType, _ := request(t, conn, wire.MsgDownloadAll, nil)
	if respType != wire.MsgCandidates {
		t.Fatalf("server unhealthy after refused second start: %v", respType)
	}
}

func TestPipelinedRequests(t *testing.T) {
	srv := startEncrypted(t)
	conn := dial(t, srv)
	// Send several requests back to back before reading any response; the
	// server must answer them in order.
	for range 5 {
		if err := wire.WriteFrame(conn, wire.MsgDownloadAll, nil); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 {
		respType, _, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if respType != wire.MsgCandidates {
			t.Fatalf("pipelined response = %v", respType)
		}
	}
}
