package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol messages. Requests flow client→server, responses server→client.
const (
	// MsgError carries a server-side error string.
	MsgError MsgType = iota + 1

	// MsgInsertEntries inserts pre-computed index entries (encrypted
	// deployment: the client computed permutations/distances and encrypted
	// the payloads; the server sees no plaintext).
	MsgInsertEntries
	// MsgInsertObjects inserts raw objects (plain deployment: the server
	// computes pivot distances itself).
	MsgInsertObjects

	// Codes 4–10 carried the per-kind single-query requests of protocol
	// version 1 (range-dists, approx-perm, approx-dists, first-cell,
	// range-plain, knn-plain, approx-plain). Version 2 sends every
	// encrypted query as MsgBatchQuery and every plain one as
	// MsgPlainQuery; the codes stay reserved so every live message keeps
	// its number and a retired one is answered with MsgError.
	_
	_
	_
	_
	_
	_
	_

	// MsgCandidates returns a candidate set of entries plus server time.
	MsgCandidates
	// MsgResults returns refined results (plain deployment) plus server time.
	MsgResults
	// MsgAck acknowledges an insert, carrying server time.
	MsgAck

	// MsgGetNode fetches one encrypted node blob by ID (EHI baseline).
	MsgGetNode
	// MsgNodeBlob returns an encrypted node blob (EHI baseline).
	MsgNodeBlob
	// MsgPutNodes uploads encrypted node blobs (EHI construction).
	MsgPutNodes

	// MsgFDHQuery fetches the encrypted objects of the given hash buckets
	// (FDH baseline).
	MsgFDHQuery
	// MsgPutFDH uploads the FDH bucket table (FDH construction).
	MsgPutFDH

	// MsgDownloadAll fetches every stored entry (trivial baseline).
	MsgDownloadAll

	// MsgPutRaw uploads encrypted raw-data blobs keyed by object ID (the
	// raw-data storage of the paper's Figure 1).
	MsgPutRaw
	// MsgGetRaw fetches encrypted raw-data blobs by object ID.
	MsgGetRaw
	// MsgRawItems returns raw-data blobs plus server time.
	MsgRawItems

	// MsgBatchQuery carries several encrypted queries (range and/or
	// approximate) in one frame, so one round trip amortizes framing and
	// latency across k queries.
	MsgBatchQuery
	// MsgBatchCandidates returns one candidate set per batched query.
	MsgBatchCandidates

	// MsgDeleteEntries tombstones indexed entries. Each reference carries
	// an entry ID plus its permutation prefix (the same pivot-space routing
	// metadata an insert reveals); batchable like MsgInsertEntries.
	MsgDeleteEntries
	// MsgDeleteAck acknowledges a delete, carrying the count of entries
	// actually tombstoned plus server time.
	MsgDeleteAck

	// MsgHello asks a server to identify itself: deployment mode and the
	// index shape (pivot count, depth, ranking strategy). The cluster
	// coordinator hellos every node at startup to verify the nodes are
	// key-compatible before it federates them; it doubles as a health
	// check (the reply carries the live entry count).
	MsgHello
	// MsgHelloAck answers MsgHello with a HelloResp.
	MsgHelloAck

	// MsgBatchRanked is MsgBatchQuery with ranking annotations kept on the
	// reply: the payload is a BatchQueryReq, but every candidate returns
	// with its source cell's promise value and permutation prefix, so an
	// aggregation layer (the cluster coordinator) can merge per-node
	// streams by the same (promise, prefix, source) order the in-server
	// shard merge uses.
	MsgBatchRanked
	// MsgBatchRankedCandidates returns one ranked candidate set per query
	// of a MsgBatchRanked request.
	MsgBatchRankedCandidates

	// MsgDeleteObjects tombstones plain-deployment objects by ID (the plain
	// server owns the pivots, so no routing metadata is needed); answered
	// with MsgDeleteAck, batchable like MsgDeleteEntries.
	MsgDeleteObjects
	// Code 32 carried first-cell-plain in protocol version 1 (reserved).
	_

	// MsgFilteredQuery wraps an inner read request (MsgBatchRanked or
	// MsgDownloadAll) with a first-level pivot restriction:
	// the server evaluates the inner request as if its index held only the
	// entries whose Perm[0] is in the allowed set, and answers with the
	// inner request's natural response type. A replicated coordinator uses
	// it to assign each first-level Voronoi cell to exactly one live owner,
	// so every entry is counted once no matter how many replicas hold it.
	MsgFilteredQuery
	// MsgResyncOps re-delivers the ordered write operations a node missed
	// while it was down (coordinator re-admission). The node applies them
	// idempotently — inserts of IDs it already holds are skipped — and
	// answers MsgAck when its state has caught up.
	MsgResyncOps

	// MsgIngestChunk streams one sequence-numbered chunk of pre-computed
	// entries during a bulk load (encrypted deployment). The client keeps a
	// window of unacknowledged chunks in flight, preparing the next chunk
	// (pivot distances, encryption) while earlier ones cross the wire and
	// build server-side; each chunk is answered by MsgIngestChunkAck.
	MsgIngestChunk
	// MsgIngestObjChunk is MsgIngestChunk for raw objects (plain
	// deployment): the server computes pivot distances itself.
	MsgIngestObjChunk
	// MsgIngestChunkAck acknowledges one streamed chunk, echoing its
	// sequence number. Under WAL policy "always" the ack additionally
	// promises the chunk's log record is on stable storage; under "group"
	// durability is deferred to the end-of-stream flush.
	MsgIngestChunkAck
	// MsgIngestEnd closes a streamed ingest: the server flushes its WAL
	// (a no-op without one) and answers MsgAck, so the final ack promises
	// every streamed chunk is applied and durable.
	MsgIngestEnd

	// MsgPlainQuery evaluates one query of any kind fully server-side
	// (plain deployment): the request is a kind-tagged PlainQueryReq
	// carrying the raw query vector, the answer MsgResults.
	MsgPlainQuery
)

var msgNames = map[MsgType]string{
	MsgError: "error", MsgInsertEntries: "insert-entries", MsgInsertObjects: "insert-objects",
	MsgCandidates: "candidates", MsgResults: "results",
	MsgAck: "ack", MsgGetNode: "get-node", MsgNodeBlob: "node-blob", MsgPutNodes: "put-nodes",
	MsgFDHQuery: "fdh-query", MsgPutFDH: "put-fdh", MsgDownloadAll: "download-all",
	MsgPutRaw: "put-raw", MsgGetRaw: "get-raw", MsgRawItems: "raw-items",
	MsgBatchQuery: "batch-query", MsgBatchCandidates: "batch-candidates",
	MsgDeleteEntries: "delete-entries", MsgDeleteAck: "delete-ack",
	MsgHello: "hello", MsgHelloAck: "hello-ack",
	MsgBatchRanked: "batch-ranked", MsgBatchRankedCandidates: "batch-ranked-candidates",
	MsgDeleteObjects: "delete-objects", MsgFilteredQuery: "filtered-query", MsgResyncOps: "resync-ops",
	MsgIngestChunk: "ingest-chunk", MsgIngestObjChunk: "ingest-obj-chunk",
	MsgIngestChunkAck: "ingest-chunk-ack", MsgIngestEnd: "ingest-end",
	MsgPlainQuery: "plain-query",
}

// String implements fmt.Stringer.
func (m MsgType) String() string {
	if s, ok := msgNames[m]; ok {
		return s
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// MaxFrameSize bounds a single frame (1 GiB) against hostile or corrupted
// length prefixes.
const MaxFrameSize = 1 << 30

// WriteFrame writes one frame: length uint32 (big endian, covering type +
// payload), type byte, payload.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload)+1 > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame into a fresh payload
// slice the caller owns.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto is ReadFrame reading the payload into buf, whose capacity
// it reuses (growing it only for a larger frame), with the same size
// check: the returned payload aliases buf.B and is valid until buf is
// reset, reused or returned to the pool. A client that reads its candidate
// frames into a pooled buffer pays neither an allocation nor the zeroing of
// one per response. A nil buf reads into a fresh slice, like ReadFrame.
func ReadFrameInto(r io.Reader, buf *Buffer) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 || size > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: implausible frame size %d", size)
	}
	n := int(size - 1)
	var payload []byte
	switch {
	case buf == nil:
		payload = make([]byte, n)
	case cap(buf.B) >= n:
		payload = buf.B[:n]
		buf.B = payload
	default:
		payload = make([]byte, n)
		buf.B = payload
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame body: %w", err)
	}
	return MsgType(hdr[4]), payload, nil
}

// CountingConn wraps a net.Conn and counts bytes in both directions — the
// "communication cost" measure of the paper's evaluation.
type CountingConn struct {
	net.Conn
	read    atomic.Int64
	written atomic.Int64
}

// NewCountingConn wraps conn.
func NewCountingConn(conn net.Conn) *CountingConn {
	return &CountingConn{Conn: conn}
}

// Read implements net.Conn.
func (c *CountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// Write implements net.Conn.
func (c *CountingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// BytesRead returns the bytes received so far.
func (c *CountingConn) BytesRead() int64 { return c.read.Load() }

// BytesWritten returns the bytes sent so far.
func (c *CountingConn) BytesWritten() int64 { return c.written.Load() }

// ResetCounters zeroes both byte counters (per-operation accounting).
func (c *CountingConn) ResetCounters() {
	c.read.Store(0)
	c.written.Store(0)
}
