package server

import (
	"fmt"
	"testing"

	"simcloud/internal/metric"
	"simcloud/internal/wire"
)

// queryTypes are the query frames a client can send: the encrypted query
// (alone or batched), its ranked form, the pivot-filtered envelope around
// either read, and the plain query.
var queryTypes = []wire.MsgType{wire.MsgBatchQuery, wire.MsgBatchRanked, wire.MsgFilteredQuery, wire.MsgPlainQuery}

// FuzzQueryDispatch feeds arbitrary payloads for every query frame through
// dispatch on one small encrypted server (4 shards) and one small plain
// server. Whatever arrives, the reply is MsgError or the request's natural
// response type, it decodes cleanly, and nothing panics.
func FuzzQueryDispatch(f *testing.F) {
	enc := newShardedServer(f, 60)
	plain, ds := newPlainServer(f)
	perm := []int32{2, 0, 1, 3, 4, 5}
	dists := []float64{1, 2, 3, 4, 5, 6}
	batch := wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchRange, Dists: dists, Radius: 5},
		{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: 15},
		{Kind: wire.BatchApproxDists, Dists: dists, CandSize: 1 << 30},
		{Kind: wire.BatchFirstCell, Perm: perm},
	}}.Encode()
	seeds := []struct {
		typ     wire.MsgType
		payload []byte
	}{
		{wire.MsgBatchQuery, batch},
		{wire.MsgBatchQuery, batchOf(wire.BatchQuery{Kind: wire.BatchFirstCell, Dists: dists})},
		{wire.MsgBatchQuery, batchOf(wire.BatchQuery{Kind: wire.BatchRange, Dists: dists[:2], Radius: 1})},
		{wire.MsgBatchRanked, batch},
		{wire.MsgFilteredQuery, wire.FilteredReq{Allow: []int32{0, 3}, Inner: wire.MsgBatchRanked, Payload: batch}.Encode()},
		{wire.MsgFilteredQuery, wire.FilteredReq{Allow: []int32{5}, Inner: wire.MsgDownloadAll}.Encode()},
		{wire.MsgFilteredQuery, wire.FilteredReq{Allow: []int32{9}, Inner: wire.MsgBatchQuery, Payload: batch}.Encode()},
		{wire.MsgPlainQuery, wire.PlainQueryReq{Kind: wire.PlainRange, Q: ds.Objects[3].Vec, Radius: 2}.Encode()},
		{wire.MsgPlainQuery, wire.PlainQueryReq{Kind: wire.PlainKNN, Q: ds.Objects[3].Vec, K: 5}.Encode()},
		{wire.MsgPlainQuery, wire.PlainQueryReq{Kind: wire.PlainApprox, Q: ds.Objects[3].Vec, K: 5, CandSize: 1 << 31}.Encode()},
		{wire.MsgPlainQuery, wire.PlainQueryReq{Kind: wire.PlainFirstCell, Q: metric.Vector{1}, K: 5}.Encode()},
		{wire.MsgPlainQuery, nil},
	}
	for _, s := range seeds {
		for i, typ := range queryTypes {
			if typ == s.typ {
				f.Add(uint8(i), s.payload)
			}
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, payload []byte) {
		typ := queryTypes[int(sel)%len(queryTypes)]
		for _, srv := range []*Server{enc, plain} {
			buf := wire.GetBuffer()
			respType, resp := srv.dispatch(typ, payload, buf)
			if err := checkReply(typ, payload, respType, resp); err != nil {
				t.Fatalf("%v server, %v: %v", srv.Mode(), typ, err)
			}
			wire.PutBuffer(buf)
		}
	})
}

// checkReply verifies that resp is MsgError or the natural response to a
// request of type typ carrying payload, and that it decodes.
func checkReply(typ wire.MsgType, payload []byte, respType wire.MsgType, resp []byte) error {
	if respType == wire.MsgError {
		_, err := wire.DecodeErrorResp(resp)
		return err
	}
	want := typ
	if typ == wire.MsgFilteredQuery {
		req, err := wire.DecodeFilteredReq(payload)
		if err != nil {
			return err
		}
		want = req.Inner
	}
	var err error
	switch {
	case want == wire.MsgBatchQuery && respType == wire.MsgBatchCandidates:
		_, err = wire.DecodeBatchQueryResp(resp)
	case want == wire.MsgBatchRanked && respType == wire.MsgBatchRankedCandidates:
		_, err = wire.DecodeBatchRankedResp(resp)
	case want == wire.MsgDownloadAll && respType == wire.MsgCandidates:
		_, err = wire.DecodeCandidatesResp(resp)
	case want == wire.MsgPlainQuery && respType == wire.MsgResults:
		_, err = wire.DecodeResultsResp(resp)
	default:
		return fmt.Errorf("reply %v to %v", respType, want)
	}
	return err
}
