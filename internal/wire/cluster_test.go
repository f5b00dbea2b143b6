package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"simcloud/internal/mindex"
)

func TestHelloRespRoundTrip(t *testing.T) {
	cases := []HelloResp{
		{},
		{Mode: HelloModeEncrypted, NumPivots: 30, MaxLevel: 8, BucketCapacity: 200,
			Ranking: 1, EagerRootSplit: true, Shards: 16, Entries: math.MaxUint64},
		{Mode: HelloModePlain, NumPivots: 1, MaxLevel: 1, BucketCapacity: 1, Ranking: 2},
		{Mode: HelloModeEncrypted, NumPivots: 50, Proto: Proto},
	}
	for _, want := range cases {
		got, err := DecodeHelloResp(want.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestHelloRespTruncated: every truncation fails except the one that cuts
// exactly the trailing Proto field — that is the hello of a server built
// before the field existed, and it decodes as version 0.
func TestHelloRespTruncated(t *testing.T) {
	want := HelloResp{Mode: 1, NumPivots: 4, MaxLevel: 2, BucketCapacity: 8, Shards: 1, Proto: Proto}
	full := want.Encode()
	legacy := len(full) - 4
	for n := range len(full) {
		got, err := DecodeHelloResp(full[:n])
		if n != legacy {
			if err == nil {
				t.Fatalf("truncation to %d bytes decoded without error", n)
			}
			continue
		}
		old := want
		old.Proto = 0
		if err != nil || got != old {
			t.Fatalf("pre-version hello (%d bytes): got %+v, %v; want %+v", n, got, err, old)
		}
	}
}

// TestBatchRankedRespRoundTrip: a ranked reply carries each candidate's
// promise and prefix plus its candidate record — ID and ciphertext. The
// entry's own Perm and Dists are not part of the record.
func TestBatchRankedRespRoundTrip(t *testing.T) {
	want := BatchRankedResp{
		ServerNanos: 42,
		Results: [][]mindex.RankedCandidate{
			nil,
			{
				{Entry: mindex.Entry{ID: 1, Perm: []int32{2, 0, 1}, Payload: []byte{9, 9}},
					Promise: 0.25, Prefix: []int32{2}},
				{Entry: mindex.Entry{ID: 2, Perm: []int32{2, 1, 0}, Dists: []float64{1, 2, 3}},
					Promise: 0.5, Prefix: []int32{2, 1}},
			},
		},
	}
	got, err := DecodeBatchRankedResp(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerNanos != want.ServerNanos || len(got.Results) != len(want.Results) {
		t.Fatalf("round trip header mismatch: %+v", got)
	}
	if len(got.Results[0]) != 0 {
		t.Fatalf("empty result came back with %d candidates", len(got.Results[0]))
	}
	for i, rc := range want.Results[1] {
		g := got.Results[1][i]
		if g.Promise != rc.Promise || !reflect.DeepEqual(g.Prefix, rc.Prefix) ||
			g.Entry.ID != rc.Entry.ID || !bytes.Equal(g.Entry.Payload, rc.Entry.Payload) {
			t.Fatalf("candidate %d mismatch: got %+v, want %+v", i, g, rc)
		}
		if g.Entry.Perm != nil || g.Entry.Dists != nil || g.Entry.Vec != nil {
			t.Fatalf("candidate %d carried index metadata: %+v", i, g.Entry)
		}
	}
}

func TestBatchRankedRespHostileCount(t *testing.T) {
	var b Buffer
	b.U64(0)
	b.U32(0xFFFFFFFF) // absurd result count for a tiny payload
	if _, err := DecodeBatchRankedResp(b.B); err == nil {
		t.Fatal("hostile result count decoded without error")
	}
}

func TestBatchQueryFirstCellRoundTrip(t *testing.T) {
	want := BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchFirstCell, Perm: []int32{3, 1, 2, 0}},
		{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 0.5},
	}}
	got, err := DecodeBatchQueryReq(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}
