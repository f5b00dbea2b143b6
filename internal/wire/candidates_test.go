package wire

import (
	"bytes"
	"errors"
	"testing"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
)

// Contract tests for the candidate record (ID | payLen | payload), the
// encoding of every candidate set a server or coordinator answers with.

// fullEntries returns entries carrying every Entry field, as the index
// stores them.
func fullEntries() []mindex.Entry {
	return []mindex.Entry{
		{ID: 7, Perm: []int32{2, 0, 1}, Dists: []float64{1.5, 2.5, 3.5},
			Payload: []byte{0xA1, 0xA2, 0xA3}, Vec: metric.Vector{4, 5}},
		{ID: 1 << 40, Perm: []int32{1, 2, 0}, Payload: bytes.Repeat([]byte{0x5C}, 300)},
		{ID: 0, Payload: []byte{}},
	}
}

// slim returns es reduced to what a candidate record carries.
func slim(es []mindex.Entry) []mindex.Entry {
	out := make([]mindex.Entry, len(es))
	for i, e := range es {
		out[i] = mindex.Entry{ID: e.ID, Payload: e.Payload}
	}
	return out
}

func sameCandidates(t *testing.T, got, want []mindex.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		g := got[i]
		if g.ID != want[i].ID || !bytes.Equal(g.Payload, want[i].Payload) {
			t.Fatalf("candidate %d: got ID %d payload %x, want ID %d payload %x",
				i, g.ID, g.Payload, want[i].ID, want[i].Payload)
		}
		if g.Perm != nil || g.Dists != nil || g.Vec != nil {
			t.Fatalf("candidate %d decoded index metadata: %+v", i, g)
		}
	}
}

// TestCandidateRecordRoundTrip: ID and payload survive every candidate
// response, and a decoded payload is a view of the frame, capped so that an
// append cannot overwrite the next record.
func TestCandidateRecordRoundTrip(t *testing.T) {
	want := slim(fullEntries())
	p := CandidatesResp{ServerNanos: 9, DistNanos: 4, Entries: want}.Encode()
	got, err := DecodeCandidatesResp(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerNanos != 9 || got.DistNanos != 4 {
		t.Fatalf("header: %+v", got)
	}
	sameCandidates(t, got.Entries, want)
	for i, e := range got.Entries {
		if cap(e.Payload) != len(e.Payload) {
			t.Fatalf("candidate %d payload has capacity %d past its length %d", i, cap(e.Payload), len(e.Payload))
		}
	}
	// ServerNanos, DistNanos, count, then the first record's ID and length.
	if &got.Entries[0].Payload[0] != &p[8+8+4+8+4] {
		t.Fatal("decoded payload does not alias the frame")
	}

	batch, err := DecodeBatchQueryResp(BatchQueryResp{ServerNanos: 3,
		Results: [][]mindex.Entry{want, nil, want[:1]}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if batch.ServerNanos != 3 || len(batch.Results) != 3 {
		t.Fatalf("batch header: %+v", batch)
	}
	sameCandidates(t, batch.Results[0], want)
	sameCandidates(t, batch.Results[1], nil)
	sameCandidates(t, batch.Results[2], want[:1])
}

// TestCandidateEncoderDropsIndexMetadata: a candidate record carries the
// ID and the ciphertext and nothing else, so a server cannot leak an
// entry's permutation, pivot distances or vector to a client — the bytes
// are exactly those of the entries stripped to ID and payload.
func TestCandidateEncoderDropsIndexMetadata(t *testing.T) {
	full, stripped := fullEntries(), slim(fullEntries())
	size := 0
	for _, e := range full {
		size += candidateMinSize + len(e.Payload)
	}
	cases := []struct {
		name        string
		full, slim  []byte
		wantPayload int
	}{
		{"candidates",
			CandidatesResp{ServerNanos: 1, Entries: full}.Encode(),
			CandidatesResp{ServerNanos: 1, Entries: stripped}.Encode(),
			16 + 4 + size},
		{"batch-candidates",
			BatchQueryResp{ServerNanos: 1, Results: [][]mindex.Entry{full}}.Encode(),
			BatchQueryResp{ServerNanos: 1, Results: [][]mindex.Entry{stripped}}.Encode(),
			8 + 4 + 4 + size},
		{"batch-ranked",
			BatchRankedResp{ServerNanos: 1, Results: [][]mindex.RankedCandidate{ranked(full)}}.Encode(),
			BatchRankedResp{ServerNanos: 1, Results: [][]mindex.RankedCandidate{ranked(stripped)}}.Encode(),
			8 + 4 + 4 + size + len(full)*(8+4+4)},
	}
	for _, tc := range cases {
		if !bytes.Equal(tc.full, tc.slim) {
			t.Errorf("%s: encoding depends on Perm/Dists/Vec", tc.name)
		}
		if len(tc.full) != tc.wantPayload {
			t.Errorf("%s: %d bytes, want %d", tc.name, len(tc.full), tc.wantPayload)
		}
	}
	got, err := DecodeBatchRankedResp(cases[2].full)
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range got.Results[0] {
		if rc.Entry.Perm != nil || rc.Entry.Dists != nil || rc.Entry.Vec != nil {
			t.Fatalf("ranked candidate %d decoded index metadata: %+v", i, rc.Entry)
		}
	}
}

// ranked annotates es as candidates of one cell with a one-pivot prefix.
func ranked(es []mindex.Entry) []mindex.RankedCandidate {
	out := make([]mindex.RankedCandidate, len(es))
	for i, e := range es {
		out[i] = mindex.RankedCandidate{Entry: e, Promise: 0.5, Prefix: []int32{2}}
	}
	return out
}

// TestRankedPrefixShared: consecutive ranked candidates of one cell decode
// to one shared prefix slice, and a new cell gets its own.
func TestRankedPrefixShared(t *testing.T) {
	rcs := append(ranked(slim(fullEntries())), mindex.RankedCandidate{
		Entry: mindex.Entry{ID: 99, Payload: []byte{1}}, Promise: 0.75, Prefix: []int32{2, 1}})
	got, err := DecodeBatchRankedResp(BatchRankedResp{Results: [][]mindex.RankedCandidate{rcs}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	g := got.Results[0]
	if &g[0].Prefix[0] != &g[1].Prefix[0] || &g[1].Prefix[0] != &g[2].Prefix[0] {
		t.Fatal("one cell's candidates decoded separate prefixes")
	}
	if len(g[3].Prefix) != 2 || g[3].Prefix[0] != 2 || g[3].Prefix[1] != 1 {
		t.Fatalf("new cell prefix = %v", g[3].Prefix)
	}
}

// TestCandidateDecodeHostile: malformed candidate lists are rejected with
// ErrCodec by every decoder that reads them, before any allocation sized
// from the hostile field.
func TestCandidateDecodeHostile(t *testing.T) {
	two := []mindex.Entry{{ID: 1, Payload: []byte{1, 2, 3}}, {ID: 2, Payload: []byte{4, 5, 6}}}
	candRecord := func(e mindex.Entry) []byte {
		var b Buffer
		b.U64(e.ID)
		b.Bytes(e.Payload)
		return b.B
	}
	batchHeader := []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0} // ServerNanos, one result
	forms := []struct {
		name   string
		header []byte // everything in front of the candidate count
		record func(e mindex.Entry) []byte
		decode func([]byte) error
	}{
		{"candidates", make([]byte, 16), candRecord,
			func(p []byte) error { _, err := DecodeCandidatesResp(p); return err }},
		{"batch-candidates", batchHeader, candRecord,
			func(p []byte) error { _, err := DecodeBatchQueryResp(p); return err }},
		{"batch-ranked", batchHeader, func(e mindex.Entry) []byte {
			var b Buffer
			b.F64(0.5)
			b.I32Slice(nil)
			return append(b.B, candRecord(e)...)
		}, func(p []byte) error { _, err := DecodeBatchRankedResp(p); return err }},
	}
	for _, f := range forms {
		list := func(count uint32, records ...[]byte) []byte {
			b := Buffer{B: append([]byte(nil), f.header...)}
			b.U32(count)
			for _, r := range records {
				b.B = append(b.B, r...)
			}
			return b.B
		}
		r1, r2 := f.record(two[0]), f.record(two[1])
		perRecord := len(r1)
		overflow := f.record(mindex.Entry{ID: 3})
		overflow = append(overflow[:len(overflow)-4], 0xF0, 0xFF, 0xFF, 0xFF)
		cases := []struct {
			name string
			p    []byte
		}{
			// The second record ends two bytes into its payload length.
			{"truncated payload length", list(2, r1, r2[:perRecord-5])},
			{"count above bytes/12", list(uint32(2*perRecord/candidateMinSize+1), r1, r2)},
			{"count near 2^32", list(0xFFFFFFFF, r1, r2)},
			{"length overflows remainder", list(2, r1, append(overflow, bytes.Repeat([]byte{7}, 64)...))},
			{"truncated payload", list(2, r1, r2[:perRecord-1])},
			{"trailing byte", append(list(2, r1, r2), 0)},
		}
		if err := f.decode(list(2, r1, r2)); err != nil {
			t.Fatalf("%s: valid list rejected: %v", f.name, err)
		}
		for _, tc := range cases {
			if err := f.decode(tc.p); !errors.Is(err, ErrCodec) {
				t.Errorf("%s / %s: got %v, want ErrCodec", f.name, tc.name, err)
			}
		}
	}
}

// FuzzCandidateRecords: whatever the candidate decoders accept re-encodes
// to exactly the bytes decoded — the decoders accept the encoders' output
// and nothing else.
func FuzzCandidateRecords(f *testing.F) {
	es := slim(fullEntries())
	f.Add(CandidatesResp{ServerNanos: 1, DistNanos: 2, Entries: es}.Encode())
	f.Add(BatchQueryResp{ServerNanos: 3, Results: [][]mindex.Entry{es, nil, es[:1]}}.Encode())
	f.Add(BatchRankedResp{ServerNanos: 4, Results: [][]mindex.RankedCandidate{ranked(es), nil}}.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeCandidatesResp(data); err == nil {
			if !bytes.Equal(m.Encode(), data) {
				t.Fatal("candidates: re-encoding differs")
			}
		}
		if m, err := DecodeBatchQueryResp(data); err == nil {
			if !bytes.Equal(m.Encode(), data) {
				t.Fatal("batch-candidates: re-encoding differs")
			}
		}
		if m, err := DecodeBatchRankedResp(data); err == nil {
			if !bytes.Equal(m.Encode(), data) {
				t.Fatal("batch-ranked: re-encoding differs")
			}
		}
	})
}

// codecFixture returns n candidates with payloads the size of a 96-d
// object's ciphertext.
func codecFixture(n int) []mindex.Entry {
	es := make([]mindex.Entry, n)
	for i := range es {
		es[i] = mindex.Entry{ID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, 448)}
	}
	return es
}

// decodeSink keeps the benchmarked decode from being optimized away.
var decodeSink CandidatesResp

// BenchmarkCandidatesCodec measures a 400-candidate response: encode into
// a reused buffer (the server's path) and decode as views (the client's).
func BenchmarkCandidatesCodec(b *testing.B) {
	resp := CandidatesResp{ServerNanos: 1, Entries: codecFixture(400)}
	b.Run("encode", func(b *testing.B) {
		var buf Buffer
		b.ReportAllocs()
		for range b.N {
			buf.Reset()
			resp.AppendTo(&buf)
		}
	})
	b.Run("decode", func(b *testing.B) {
		p := resp.Encode()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			var err error
			if decodeSink, err = DecodeCandidatesResp(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCandidateDecodeAllocs: decoding 400 candidate records costs one
// allocation, the entry list; no candidate allocates.
func TestCandidateDecodeAllocs(t *testing.T) {
	p := CandidatesResp{Entries: codecFixture(400)}.Encode()
	got := testing.AllocsPerRun(50, func() {
		if _, err := DecodeCandidatesResp(p); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Fatalf("decoding 400 candidates: %.0f allocations, want at most 1", got)
	}
}
