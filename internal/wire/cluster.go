package wire

import "simcloud/internal/mindex"

// This file defines the messages the cluster coordinator exchanges with
// simserver nodes: the hello handshake that verifies key-compatibility
// before a node joins a federation, and the ranked batch query whose
// replies keep per-candidate promise annotations so per-node streams can be
// merged by the shared (promise, prefix, source) order (internal/merge).
// Both messages are ordinary protocol citizens — any client may send them.

// HelloReq asks a server to identify itself. It carries no fields; the
// message type alone is the request.
type HelloReq struct{}

// Encode serializes the request payload.
func (m HelloReq) Encode() []byte { return nil }

// DecodeHelloReq parses a HelloReq payload (any payload is accepted — the
// request has no fields, and tolerating trailing bytes keeps the handshake
// forward-extensible).
func DecodeHelloReq(p []byte) (HelloReq, error) { return HelloReq{}, nil }

// Deployment modes as reported by HelloResp.Mode (mirrors server.Mode
// without importing it — wire sits below server in the layering).
const (
	HelloModeEncrypted uint8 = 1
	HelloModePlain     uint8 = 2
)

// Proto is the version of the wire protocol this build speaks, reported in
// every hello. Version 1 answers reads with candidate records (ID and
// ciphertext only); a server built before the version field existed
// answers with full entry records and reports 0. Version 2 sends one query
// request per deployment — MsgBatchQuery (encrypted) and MsgPlainQuery
// (plain) — and reserves the codes of the per-kind query frames it
// retired. Clients and coordinators refuse a peer whose version differs
// from their own, since a record decoded under the other layout is garbage
// and the other version's query frames are unknown.
const Proto = 2

// HelloResp identifies a server: its deployment mode and the index shape a
// client (or coordinator) must match to talk to it meaningfully. A
// coordinator rejects nodes whose NumPivots, MaxLevel or Ranking disagree —
// entries indexed under one pivot set are garbage under another, and the
// mismatch is otherwise invisible until recall silently collapses.
type HelloResp struct {
	// Mode is the deployment mode (HelloModeEncrypted / HelloModePlain).
	Mode uint8
	// NumPivots, MaxLevel, BucketCapacity and Ranking echo the server's
	// mindex.Config. NumPivots must equal the client key's pivot count.
	NumPivots      uint32
	MaxLevel       uint32
	BucketCapacity uint32
	Ranking        uint8
	// EagerRootSplit reports whether every leaf cell of the server's index
	// lies at permutation-prefix length >= 1 (true for multi-shard engines
	// and for single-shard indexes started with the eager-root-split
	// option). A coordinator federating more than one node requires it:
	// without it a node whose root bucket has not split yet would advertise
	// all its entries at promise 0 and crowd out the other nodes' cells in
	// the cross-node merge (see DESIGN.md §Distribution).
	EagerRootSplit bool
	// Shards is the node's in-process partition count (informational).
	Shards uint32
	// Entries is the live entry count — the health-check payload.
	Entries uint64
	// Proto is the server's wire protocol version (see the Proto
	// constant). It is the last field: a hello without it decodes as 0.
	Proto uint32
}

// Encode serializes the response payload.
func (m HelloResp) Encode() []byte {
	var b Buffer
	b.U8(m.Mode)
	b.U32(m.NumPivots)
	b.U32(m.MaxLevel)
	b.U32(m.BucketCapacity)
	b.U8(m.Ranking)
	if m.EagerRootSplit {
		b.U8(1)
	} else {
		b.U8(0)
	}
	b.U32(m.Shards)
	b.U64(m.Entries)
	b.U32(m.Proto)
	return b.B
}

// DecodeHelloResp parses a HelloResp payload.
func DecodeHelloResp(p []byte) (HelloResp, error) {
	r := NewReader(p)
	m := HelloResp{
		Mode:           r.U8(),
		NumPivots:      r.U32(),
		MaxLevel:       r.U32(),
		BucketCapacity: r.U32(),
		Ranking:        r.U8(),
		EagerRootSplit: r.U8() != 0,
		Shards:         r.U32(),
		Entries:        r.U64(),
	}
	if len(r.b) > 0 {
		m.Proto = r.U32()
	}
	return m, r.Err()
}

// appendRanked writes a count-prefixed ranked-candidate list: per
// candidate, the source cell's promise and prefix followed by the
// candidate record (ID and ciphertext; see appendCandidates).
func appendRanked(b *Buffer, rcs []mindex.RankedCandidate) {
	b.U32(uint32(len(rcs)))
	for i := range rcs {
		b.F64(rcs[i].Promise)
		b.I32Slice(rcs[i].Prefix)
		b.U64(rcs[i].Entry.ID)
		b.Bytes(rcs[i].Entry.Payload)
	}
}

// rankedMinSize is the encoded size of a ranked candidate with an empty
// prefix and payload: promise, prefix length, then a candidate record.
const rankedMinSize = 8 + 4 + candidateMinSize

// readRanked decodes a ranked-candidate list as views, like readCandidates;
// consecutive candidates of one cell share a single decoded prefix.
func readRanked(r *Reader) []mindex.RankedCandidate {
	n := r.len32(rankedMinSize)
	if r.err != nil {
		return nil
	}
	out := make([]mindex.RankedCandidate, n)
	var prefix []int32
	for i := range out {
		rc := &out[i]
		rc.Promise = r.F64()
		prefix = r.i32SliceOr(prefix)
		rc.Prefix = prefix
		rc.Entry.ID = r.U64()
		rc.Entry.Payload = r.bytesView()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// BatchRankedResp returns the ranked candidate sets of a MsgBatchRanked
// request, parallel to the request's query list. Range queries (exact, no
// cell ranking) return their candidates with promise 0 and a nil prefix;
// first-cell queries return the winning cell's entries, every one annotated
// with that cell's promise and prefix. Decoded candidates are views: their
// Payloads alias the decoded frame, and their Prefixes may be shared.
type BatchRankedResp struct {
	ServerNanos uint64
	Results     [][]mindex.RankedCandidate
}

// AppendTo appends the encoded response to b (see CandidatesResp.AppendTo).
func (m BatchRankedResp) AppendTo(b *Buffer) {
	b.U64(m.ServerNanos)
	b.U32(uint32(len(m.Results)))
	for _, rcs := range m.Results {
		appendRanked(b, rcs)
	}
}

// Encode serializes the response payload.
func (m BatchRankedResp) Encode() []byte {
	var b Buffer
	m.AppendTo(&b)
	return b.B
}

// DecodeBatchRankedResp parses a BatchRankedResp payload. The candidates'
// Payloads alias p.
func DecodeBatchRankedResp(p []byte) (BatchRankedResp, error) {
	r := Reader{b: p}
	m := BatchRankedResp{ServerNanos: r.U64()}
	// Each result occupies at least its 4-byte candidate count.
	n := r.len32(4)
	if r.err != nil {
		return m, r.err
	}
	m.Results = make([][]mindex.RankedCandidate, n)
	for i := range m.Results {
		if m.Results[i] = readRanked(&r); r.err != nil {
			break
		}
	}
	return m, r.Err()
}
