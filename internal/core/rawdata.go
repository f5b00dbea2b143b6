package core

import (
	"context"
	"fmt"
	"time"

	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// Raw-data storage (Figure 1 of the paper): the original sensitive data —
// image files, full gene records — is stored encrypted and separately from
// the metric index; similarity search yields object IDs, which the
// authorized client then resolves against the raw-data storage and decrypts
// locally. The same AES key protects both stores, so "the raw data is
// always encrypted" (paper, note at the end of Section 2.3).

// UploadRaw is UploadRawContext without a deadline.
func (c *EncryptedClient) UploadRaw(items map[uint64][]byte) (stats.Costs, error) {
	return c.UploadRawContext(context.Background(), items)
}

// UploadRawContext encrypts and uploads raw-data blobs keyed by object ID.
func (c *EncryptedClient) UploadRawContext(ctx context.Context, items map[uint64][]byte) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	wireItems := make([]wire.RawItem, 0, len(items))
	for id, blob := range items {
		encStart := time.Now()
		ct, err := c.key.Seal(blob)
		costs.EncryptTime += time.Since(encStart)
		if err != nil {
			return costs, fmt.Errorf("core: encrypting raw data %d: %w", id, err)
		}
		wireItems = append(wireItems, wire.RawItem{ID: id, Blob: ct})
	}
	respType, resp, err := c.roundTrip(ctx, wire.MsgPutRaw, wire.PutRawReq{Items: wireItems}.Encode(), &costs, nil)
	if err != nil {
		return costs, err
	}
	if respType != wire.MsgAck {
		return costs, fmt.Errorf("core: unexpected raw upload response %v", respType)
	}
	ack, err := wire.DecodeAckResp(resp)
	if err != nil {
		return costs, err
	}
	creditServer(&costs, ack.ServerNanos)
	finish(&costs, start)
	return costs, nil
}

// FetchRaw is FetchRawContext without a deadline.
func (c *EncryptedClient) FetchRaw(ids []uint64) (map[uint64][]byte, stats.Costs, error) {
	return c.FetchRawContext(context.Background(), ids)
}

// FetchRawContext retrieves and decrypts the raw data of the given object
// IDs — the final step of the outsourced search flow after a similarity
// query has produced its answer set.
func (c *EncryptedClient) FetchRawContext(ctx context.Context, ids []uint64) (map[uint64][]byte, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	respType, resp, err := c.roundTrip(ctx, wire.MsgGetRaw, wire.GetRawReq{IDs: ids}.Encode(), &costs, nil)
	if err != nil {
		return nil, costs, err
	}
	if respType != wire.MsgRawItems {
		return nil, costs, fmt.Errorf("core: unexpected raw fetch response %v", respType)
	}
	m, err := wire.DecodeRawItemsResp(resp)
	if err != nil {
		return nil, costs, err
	}
	creditServer(&costs, m.ServerNanos)
	out := make(map[uint64][]byte, len(m.Items))
	for _, it := range m.Items {
		decStart := time.Now()
		pt, err := c.key.Open(it.Blob)
		costs.DecryptTime += time.Since(decStart)
		if err != nil {
			return nil, costs, fmt.Errorf("core: decrypting raw data %d: %w", it.ID, err)
		}
		out[it.ID] = pt
	}
	finish(&costs, start)
	return out, costs, nil
}
