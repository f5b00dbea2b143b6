package server

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/wire"
)

// newPlainServer builds a plain-deployment server over a small clustered
// collection (2-d vectors, 6 pivots) holding every object of it.
func newPlainServer(t testing.TB) (*Server, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Clustered(1, 50, 2, 2, metric.L1{})
	pv := pivot.SelectRandom(rand.New(rand.NewPCG(1, 1)), ds.Dist, ds.Objects, 6)
	srv, err := NewPlain(testCfg(), pv)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	t.Cleanup(func() { srv.Close() })
	if err := srv.plain.InsertBulk(ds.Objects); err != nil {
		t.Fatal(err)
	}
	return srv, ds
}

// newShardedServer builds a 4-shard encrypted server holding n test
// entries.
func newShardedServer(t testing.TB, n int) *Server {
	t.Helper()
	cfg := testCfg()
	cfg.Shards = 4
	srv, err := NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	t.Cleanup(func() { srv.Close() })
	if err := srv.enc.InsertBulk(testEntries(n)); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestRetiredQueryCodesRejected: the codes of the per-kind query frames
// protocol version 1 used are reserved; both deployments answer them with
// MsgError and keep the connection usable.
func TestRetiredQueryCodesRejected(t *testing.T) {
	enc := startEncrypted(t)
	plain, ds := newPlainServer(t)
	if err := plain.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	q := wire.PlainQueryReq{Kind: wire.PlainKNN, Q: ds.Objects[0].Vec, K: 3}.Encode()
	for _, tc := range []struct {
		srv  *Server
		live wire.MsgType
		body []byte
		want wire.MsgType
	}{
		{enc, wire.MsgDownloadAll, nil, wire.MsgCandidates},
		{plain, wire.MsgPlainQuery, q, wire.MsgResults},
	} {
		conn := dial(t, tc.srv)
		for _, code := range []uint8{4, 5, 6, 7, 8, 9, 10, 32} {
			expectError(t, conn, wire.MsgType(code), q, "unsupported request")
			if respType, _ := request(t, conn, tc.live, tc.body); respType != tc.want {
				t.Fatalf("%v server: connection unusable after retired code %d: %v", tc.srv.Mode(), code, respType)
			}
		}
	}
}

// TestPlainQuery: one MsgPlainQuery case answers every query kind with
// exactly what the plain index computes, and a vector of the wrong
// dimension is an error response, not a panic.
func TestPlainQuery(t *testing.T) {
	srv, ds := newPlainServer(t)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn := dial(t, srv)
	q := ds.Objects[7].Vec
	for _, tc := range []struct {
		req  wire.PlainQueryReq
		want func() ([]mindex.Result, error)
	}{
		{wire.PlainQueryReq{Kind: wire.PlainRange, Q: q, Radius: 3},
			func() ([]mindex.Result, error) { return srv.plain.Range(q, 3) }},
		{wire.PlainQueryReq{Kind: wire.PlainKNN, Q: q, K: 5},
			func() ([]mindex.Result, error) { return srv.plain.KNN(q, 5) }},
		{wire.PlainQueryReq{Kind: wire.PlainApprox, Q: q, K: 5, CandSize: 20},
			func() ([]mindex.Result, error) { return srv.plain.ApproxKNN(q, 5, 20) }},
		{wire.PlainQueryReq{Kind: wire.PlainFirstCell, Q: q, K: 5},
			func() ([]mindex.Result, error) { return srv.plain.FirstCellKNN(q, 5) }},
	} {
		respType, resp := request(t, conn, wire.MsgPlainQuery, tc.req.Encode())
		if respType != wire.MsgResults {
			t.Fatalf("kind %d: got %v", tc.req.Kind, respType)
		}
		got, err := wire.DecodeResultsResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.want()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got.Results, want) {
			t.Fatalf("kind %d: got %v, want %v", tc.req.Kind, got.Results, want)
		}
	}
	expectError(t, conn, wire.MsgPlainQuery,
		wire.PlainQueryReq{Kind: wire.PlainKNN, Q: metric.Vector{1, 2, 3}, K: 1}.Encode(), "dimension")
	expectError(t, conn, wire.MsgInsertObjects,
		wire.InsertObjectsReq{Objects: []metric.Object{{ID: 99, Vec: metric.Vector{1}}}}.Encode(), "dimension")
	expectError(t, conn, wire.MsgPlainQuery, []byte{9, 0, 0, 0, 0}, "")
	if respType, _ := request(t, conn, wire.MsgPlainQuery,
		wire.PlainQueryReq{Kind: wire.PlainKNN, Q: q, K: 1}.Encode()); respType != wire.MsgResults {
		t.Fatalf("connection unusable after hostile plain queries: %v", respType)
	}
}

// TestHostileCandSize: a client-chosen candidate size must not size the
// server's allocations. Against 60 entries on 4 shards, a request for
// 2^20 candidates allocates under 1 MB and returns every entry; one for
// 2^32-1 (hundreds of GB if preallocated) is answered the same way.
func TestHostileCandSize(t *testing.T) {
	srv := newShardedServer(t, 60)
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	perm := []int32{1, 0, 2, 3, 4, 5}
	for _, candSize := range []uint32{1 << 20, math.MaxUint32} {
		for _, typ := range []wire.MsgType{wire.MsgBatchQuery, wire.MsgBatchRanked} {
			payload := batchOf(wire.BatchQuery{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: candSize})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			respType, resp := srv.dispatch(typ, payload, buf)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("%v with candidate size %d allocated %d bytes", typ, candSize, alloc)
			}
			var n int
			switch respType {
			case wire.MsgBatchCandidates:
				m, err := wire.DecodeBatchQueryResp(resp)
				if err != nil {
					t.Fatal(err)
				}
				n = len(m.Results[0])
			case wire.MsgBatchRankedCandidates:
				m, err := wire.DecodeBatchRankedResp(resp)
				if err != nil {
					t.Fatal(err)
				}
				n = len(m.Results[0])
			default:
				t.Fatalf("%v with candidate size %d: got %v", typ, candSize, respType)
			}
			if n != 60 {
				t.Errorf("%v with candidate size %d returned %d candidates, want all 60", typ, candSize, n)
			}
		}
	}
}
