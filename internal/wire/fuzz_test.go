package wire

import (
	"bytes"
	"testing"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
)

// Fuzz targets for every untrusted parsing surface of the protocol. Under
// plain `go test` they run their seed corpus; `go test -fuzz=FuzzX` explores
// further. The invariant everywhere: decoders never panic, never over-read,
// and accept exactly what the encoders produce.

func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add(mindex.EncodeEntry(mindex.Entry{ID: 1, Perm: []int32{0, 1}, Payload: []byte{9}}))
	f.Add(mindex.EncodeEntry(mindex.Entry{ID: 2, Dists: []float64{1, 2}, Vec: metric.Vector{3}}))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest, err := mindex.DecodeEntry(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatal("decoder grew the buffer")
		}
		// Whatever decoded must re-encode to the consumed bytes.
		consumed := data[:len(data)-len(rest)]
		if !bytes.Equal(mindex.EncodeEntry(e), consumed) {
			t.Fatalf("re-encoding mismatch for %d consumed bytes", len(consumed))
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, MsgAck, []byte{1, 2, 3})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1, 5})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Round trip: writing the frame back must produce a prefix of data.
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("frame round trip mismatch")
		}
	})
}

func FuzzDecodeRequests(f *testing.F) {
	f.Add(BatchQueryReq{Queries: []BatchQuery{{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 3}}}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{{Kind: BatchApproxPerm, Perm: []int32{1, 0}, CandSize: 5}}}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{{Kind: BatchApproxDists, Dists: []float64{0.5}, CandSize: 7}}}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{{Kind: BatchFirstCell, Dists: []float64{1, 2}}}}.Encode())
	f.Add(PlainQueryReq{Kind: PlainRange, Q: metric.Vector{7, 8}, Radius: 1}.Encode())
	f.Add(PlainQueryReq{Kind: PlainKNN, Q: metric.Vector{1}, K: 30}.Encode())
	f.Add(PlainQueryReq{Kind: PlainApprox, Q: metric.Vector{1, 2, 3}, K: 30, CandSize: 1500}.Encode())
	f.Add(InsertEntriesReq{Entries: []mindex.Entry{{ID: 1, Perm: []int32{0}}}}.Encode())
	f.Add(PutNodesReq{RootID: 1, Nodes: []EHINode{{ID: 1, Blob: []byte{2}}}}.Encode())
	f.Add(PutFDHReq{Items: []FDHItem{{Key: 3, Payload: []byte{4}}}}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchRange, Dists: []float64{1}, Radius: 2},
		{Kind: BatchApproxPerm, Perm: []int32{0, 1}, CandSize: 3},
	}}.Encode())
	f.Add(BatchQueryResp{ServerNanos: 1, Results: [][]mindex.Entry{{{ID: 1, Perm: []int32{0}}}}}.Encode())
	f.Add(DeleteEntriesReq{Refs: []mindex.Entry{
		{ID: 7, Perm: []int32{1, 0, 2}},
		{ID: 8, Perm: []int32{2, 1, 0}},
	}}.Encode())
	f.Add(DeleteAckResp{ServerNanos: 9, Deleted: 2}.Encode())
	f.Add(HelloResp{Mode: HelloModeEncrypted, NumPivots: 16, MaxLevel: 8,
		BucketCapacity: 200, Ranking: 1, EagerRootSplit: true, Shards: 4, Entries: 12}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{{Kind: BatchFirstCell, Perm: []int32{1, 0}}}}.Encode())
	f.Add(BatchRankedResp{ServerNanos: 2, Results: [][]mindex.RankedCandidate{{
		{Entry: mindex.Entry{ID: 3, Perm: []int32{1, 0}}, Promise: 0.5, Prefix: []int32{1}},
	}}}.Encode())
	f.Add(DeleteObjectsReq{IDs: []uint64{1, 2, 3}}.Encode())
	f.Add(PlainQueryReq{Kind: PlainFirstCell, Q: metric.Vector{1, 2}, K: 4}.Encode())
	f.Add(FilteredReq{Allow: []int32{0, 3, 5}, Inner: MsgBatchRanked,
		Payload: BatchQueryReq{Queries: []BatchQuery{{Kind: BatchRange, Dists: []float64{1}, Radius: 2}}}.Encode()}.Encode())
	f.Add(ResyncReq{Ops: []ResyncOp{
		{Op: ResyncInsert, Entries: []mindex.Entry{{ID: 1, Perm: []int32{0, 1}, Payload: []byte{9}}}},
		{Op: ResyncDelete, Entries: []mindex.Entry{{ID: 2, Perm: []int32{1}}}},
	}}.Encode())
	f.Add(IngestChunkReq{Seq: 1, Entries: []mindex.Entry{{ID: 4, Perm: []int32{1, 0}, Payload: []byte{8}}}}.Encode())
	f.Add(IngestObjChunkReq{Seq: 2, Objects: []metric.Object{{ID: 5, Vec: metric.Vector{1, 2}}}}.Encode())
	f.Add(IngestChunkAckResp{Seq: 3, ServerNanos: 77}.Encode())
	f.Add(IngestEndReq{}.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// None of these may panic; errors are fine.
		_, _ = DecodeInsertEntriesReq(data)
		_, _ = DecodeInsertObjectsReq(data)
		_, _ = DecodePlainQueryReq(data)
		_, _ = DecodeCandidatesResp(data)
		_, _ = DecodeResultsResp(data)
		_, _ = DecodeAckResp(data)
		_, _ = DecodeErrorResp(data)
		_, _ = DecodePutNodesReq(data)
		_, _ = DecodeGetNodeReq(data)
		_, _ = DecodeNodeBlobResp(data)
		_, _ = DecodePutFDHReq(data)
		_, _ = DecodeFDHQueryReq(data)
		_, _ = DecodeBatchQueryReq(data)
		_, _ = DecodeBatchQueryResp(data)
		_, _ = DecodeDeleteEntriesReq(data)
		_, _ = DecodeDeleteAckResp(data)
		_, _ = DecodeHelloResp(data)
		_, _ = DecodeBatchRankedResp(data)
		_, _ = DecodeDeleteObjectsReq(data)
		_, _ = DecodeFilteredReq(data)
		_, _ = DecodeResyncReq(data)
		_, _ = DecodeIngestChunkReq(data)
		_, _ = DecodeIngestObjChunkReq(data)
		_, _ = DecodeIngestChunkAckResp(data)
		_, _ = DecodeIngestEndReq(data)
	})
}
