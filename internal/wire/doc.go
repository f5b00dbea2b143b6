// Package wire implements the binary client–server protocol of the
// similarity cloud: length-prefixed frames over TCP, a compact field codec,
// and the typed request/response messages exchanged by the encrypted and
// plain clients, the server, the cluster coordinator, and the baseline
// protocols.
//
// The protocol is deliberately explicit about what each request reveals:
// encrypted-deployment requests carry only pivot permutations or pivot
// distance vectors (never the query object), while plain-deployment requests
// carry the raw query vector — making the privacy difference between the two
// variants directly visible on the wire, where the benchmark harness
// measures communication cost.
//
// # Key invariant: hostile-input safety and frame limits
//
// Every byte of a frame is untrusted until decoded. A frame is a uint32
// length prefix (covering type byte + payload) followed by the type byte
// and payload; ReadFrame rejects frames larger than MaxFrameSize (1 GiB)
// so a corrupted or hostile length prefix cannot make the receiver
// allocate unboundedly. Within a payload, every count-prefixed list bounds
// its claimed element count by the payload bytes actually present before
// allocating, and every decoder returns ErrCodec (never panics, never
// over-reads) on malformed input — properties exercised continuously by
// the fuzz targets in this package and by the CI fuzz-smoke job.
//
// Decoders accept exactly what the encoders produce, so the byte counts
// measured by the benchmarks are the exact bytes a real deployment ships.
//
// # Candidate records are views
//
// Every candidate set on the read side (CandidatesResp, BatchQueryResp,
// BatchRankedResp) travels as candidate records — object ID and
// ciphertext, nothing else — and decodes without copying: each decoded
// entry's Payload aliases the payload bytes it was decoded from. One
// allocation holds the entry list; no candidate allocates. A caller that
// keeps a payload beyond the life of its frame must copy it, and a frame
// read into a pooled buffer (ReadFrameInto) may go back to the pool only
// once nothing reads those views any more. The write side — inserts,
// deletes, re-sync and streamed ingest — keeps the full, copying entry
// codec (mindex.AppendEntry / DecodeEntry), so nothing an index stores
// ever pins a frame.
//
// # One query request per deployment
//
// Every encrypted query, alone or batched, travels as MsgBatchQuery (a
// BatchQueryReq; a lone query is a batch of one) and is answered with
// MsgBatchCandidates; every plain query travels as MsgPlainQuery (a
// kind-tagged PlainQueryReq) and is answered with MsgResults. The request
// shape of a query kind is chosen in exactly one wire type per deployment.
//
// # Protocol version
//
// HelloResp.Proto carries the wire protocol version (Proto). Clients and
// coordinators refuse a server of another version at the handshake rather
// than misread its records. The history:
//
//   - 0: hellos without the field (full entry records in every answer).
//   - 1: candidate records — ID and ciphertext only — in every answer.
//   - 2: one query request per deployment. The eight per-kind query
//     frames of version 1 (codes 4–10 and 32) are retired; their codes
//     stay reserved so every live message keeps its number, and a server
//     answers them with MsgError. MsgPlainQuery is appended as code 39.
//
// # Context-derived deadlines
//
// ArmContext is the single bridge between context semantics and net.Conn
// deadlines: it projects a context's deadline onto the connection for the
// duration of one exchange, interrupts blocked IO when the context is
// cancelled, and maps the resulting net timeout back to an error wrapping
// ctx.Err(). Every client round trip, every pipelined batch flight, and
// every coordinator→node exchange goes through it, so no layer above wire
// ever calls SetDeadline directly.
package wire
