package wire

import (
	"reflect"
	"testing"

	"simcloud/internal/mindex"
)

func TestFilteredReqRoundTrip(t *testing.T) {
	cases := []FilteredReq{
		{Inner: MsgDownloadAll},
		{Allow: []int32{0}, Inner: MsgBatchRanked,
			Payload: BatchQueryReq{Queries: []BatchQuery{
				{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 3},
			}}.Encode()},
		{Allow: []int32{7, 0, 3, 5}, Inner: MsgBatchRanked,
			Payload: BatchQueryReq{Queries: []BatchQuery{
				{Kind: BatchApproxPerm, Perm: []int32{3, 0}, CandSize: 10},
			}}.Encode()},
	}
	for _, want := range cases {
		got, err := DecodeFilteredReq(want.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !reflect.DeepEqual(normalizeFiltered(got), normalizeFiltered(want)) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// normalizeFiltered maps empty and nil slices together: the codec does not
// distinguish them.
func normalizeFiltered(m FilteredReq) FilteredReq {
	if len(m.Allow) == 0 {
		m.Allow = nil
	}
	if len(m.Payload) == 0 {
		m.Payload = nil
	}
	return m
}

func TestFilteredReqTruncated(t *testing.T) {
	full := FilteredReq{Allow: []int32{1, 2}, Inner: MsgBatchRanked,
		Payload: []byte{1, 2, 3}}.Encode()
	for n := range len(full) {
		if _, err := DecodeFilteredReq(full[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := DecodeFilteredReq(append(full, 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

func TestResyncReqRoundTrip(t *testing.T) {
	want := ResyncReq{Ops: []ResyncOp{
		{Op: ResyncInsert, Entries: []mindex.Entry{
			{ID: 1, Perm: []int32{0, 2, 1}, Dists: []float64{0.5}, Payload: []byte{7}},
			{ID: 2, Perm: []int32{1, 0, 2}},
		}},
		{Op: ResyncDelete, Entries: []mindex.Entry{{ID: 1, Perm: []int32{0}}}},
		{Op: ResyncInsert, Entries: nil},
	}}
	got, err := DecodeResyncReq(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("round trip: %d ops, want %d", len(got.Ops), len(want.Ops))
	}
	for i := range want.Ops {
		if got.Ops[i].Op != want.Ops[i].Op || len(got.Ops[i].Entries) != len(want.Ops[i].Entries) {
			t.Fatalf("op %d mismatch: got %+v want %+v", i, got.Ops[i], want.Ops[i])
		}
		for j := range want.Ops[i].Entries {
			if !reflect.DeepEqual(got.Ops[i].Entries[j], want.Ops[i].Entries[j]) {
				t.Fatalf("op %d entry %d mismatch", i, j)
			}
		}
	}
	// Empty request round-trips too.
	if m, err := DecodeResyncReq(ResyncReq{}.Encode()); err != nil || len(m.Ops) != 0 {
		t.Fatalf("empty round trip: %+v, %v", m, err)
	}
}

func TestResyncReqRejectsBadOp(t *testing.T) {
	var b Buffer
	b.U32(1)
	b.U8(99) // not a re-sync op
	b.U32(0)
	if _, err := DecodeResyncReq(b.B); err == nil {
		t.Fatal("unknown op decoded without error")
	}
}

func TestResyncReqTruncated(t *testing.T) {
	full := ResyncReq{Ops: []ResyncOp{
		{Op: ResyncInsert, Entries: []mindex.Entry{{ID: 3, Perm: []int32{1}}}},
	}}.Encode()
	for n := range len(full) {
		if _, err := DecodeResyncReq(full[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}
