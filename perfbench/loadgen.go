package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/gateway"
	"simcloud/internal/stats"
)

// httpSearcher is a core.Searcher that sends each query through the
// gateway's HTTP API, so the runner's checks apply to the gateway path.
// It reports no Costs: the gateway returns none.
type httpSearcher struct {
	base, apiKey string
	client       *http.Client
	rejected     atomic.Int64 // 429 answers
}

// errRejected marks a request the gateway refused with 429.
var errRejected = errors.New("gateway refused the request (429)")

func kindName(k core.QueryKind) string {
	switch k {
	case core.KindRange:
		return "range"
	case core.KindKNN:
		return "knn"
	case core.KindFirstCell:
		return "first-cell"
	default:
		return "approx-knn"
	}
}

func searchRequest(q core.Query) gateway.SearchRequest {
	return gateway.SearchRequest{
		Kind: kindName(q.Kind), Vec: q.Vec, K: q.K, Radius: q.Radius, CandSize: q.CandSize, RefineLimit: q.RefineLimit,
	}
}

func (h *httpSearcher) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("X-API-Key", h.apiKey)
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		h.rejected.Add(1)
		return errRejected
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway answered %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return json.Unmarshal(payload, out)
}

func results(rs []gateway.SearchResult) []core.Result {
	out := make([]core.Result, len(rs))
	for i, r := range rs {
		out[i] = core.Result{ID: r.ID, Dist: r.Dist}
	}
	return out
}

func (h *httpSearcher) Search(ctx context.Context, q core.Query) ([]core.Result, stats.Costs, error) {
	var resp gateway.SearchResponse
	if err := h.post(ctx, "/v1/search", searchRequest(q), &resp); err != nil {
		return nil, stats.Costs{}, err
	}
	return results(resp.Results), stats.Costs{}, nil
}

func (h *httpSearcher) SearchBatch(ctx context.Context, qs []core.Query) ([][]core.Result, stats.Costs, error) {
	req := gateway.BatchRequest{Queries: make([]gateway.SearchRequest, len(qs))}
	for i, q := range qs {
		req.Queries[i] = searchRequest(q)
	}
	var resp gateway.BatchResponse
	if err := h.post(ctx, "/v1/search/batch", req, &resp); err != nil {
		return nil, stats.Costs{}, err
	}
	out := make([][]core.Result, len(resp.Results))
	for i, rs := range resp.Results {
		out[i] = results(rs)
	}
	return out, stats.Costs{}, nil
}

func (h *httpSearcher) Close() error {
	h.client.CloseIdleConnections()
	return nil
}

// openLoop sends the operations at a fixed offered rate over conns
// connections, each operation due at start + i/rate whether or not earlier
// ones have finished. Every latency the runner records is timed from the
// operation's due time, so a stall also counts against the operations
// queued behind it; late records how far behind schedule each send began.
type openLoop struct {
	rate  float64
	conns int
	late  samples
}

// run sends ops until the schedule ends, the i-th through the runner
// at(i), and returns the elapsed time from the first due time to the last
// completion.
func (l *openLoop) run(ctx context.Context, at func(i int) *runner, ops []op) time.Duration {
	type job struct {
		r   *runner
		o   op
		due time.Time
	}
	// Sized to the number of sends, so the dispatcher never blocks and
	// keeps its schedule whatever the workers' progress.
	jobs := make(chan job, len(ops))
	var mu sync.Mutex // serializes the runner's bookkeeping
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				mu.Lock()
				l.late.add(sent.Sub(j.due))
				mu.Unlock()
				j.r.doAt(ctx, j.o, j.due, &mu)
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / l.rate)
	for i, o := range ops {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{r: at(i), o: o, due: due}
	}
	close(jobs)
	wg.Wait()
	return time.Since(start)
}
