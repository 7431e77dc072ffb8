package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
)

// StreamConn is a Conn that can deliver a query's answer incrementally:
// sink receives each @SQStreamItem frame as it arrives — rank-stable
// document slices first, one terminal frame last — and QueryStream then
// returns the complete final answer, identical to what Query would have
// returned. A nil sink degrades to Query semantics over the streaming
// wire. If the sink returns an error, delivery stops and QueryStream
// returns that error (the final answer, when already decoded, comes
// with it).
//
// The Conn middlewares do not pass streaming through: a wrapped
// StreamConn answers buffered queries (see Keep).
type StreamConn interface {
	Conn
	// QueryStream evaluates q, delivering frames to sink as they arrive.
	QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error)
}

// StreamURL derives a source's streaming query endpoint from its
// (metadata-declared) query URL: the same route, asked to frame its
// response incrementally.
func StreamURL(queryURL string) string {
	sep := "?"
	if bytes.ContainsRune([]byte(queryURL), '?') {
		sep = "&"
	}
	return queryURL + sep + "stream=1"
}

// QueryStream submits q to a source's streaming query URL and decodes
// the @SQStreamItem frames off the wire as the server flushes them, so
// sink sees the first rank-stable documents while the source (or the
// broker fan-out behind it) is still working on the rest. It returns
// the terminal frame's complete answer. Unlike Query, the response body
// is never buffered whole before decoding — that buffering is exactly
// what streaming exists to avoid.
func (c *Client) QueryStream(ctx context.Context, url string, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	body, err := q.Marshal()
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-soif")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, &StatusError{
			Method: req.Method, URL: req.URL.String(),
			StatusCode: resp.StatusCode, Status: resp.Status,
			Snippet: truncate(snippet),
		}
	}
	dec := soif.NewDecoder(io.LimitReader(resp.Body, maxResponseBytes))
	var final *result.Results
	for {
		it, err := result.DecodeStreamItem(dec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("client: streaming %s: %w", req.URL, err)
		}
		if it.Err != nil {
			return nil, it.Err
		}
		if sink != nil {
			if serr := sink(*it); serr != nil {
				return final, serr
			}
		}
		if it.Final != nil {
			final = it.Final
		}
	}
	if final == nil {
		return nil, fmt.Errorf("client: streaming %s: response ended without a terminal answer", req.URL)
	}
	return final, nil
}

// QueryStream implements StreamConn over the wire.
func (h *HTTPConn) QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	m, err := h.meta(ctx)
	if err != nil {
		return nil, err
	}
	return h.client.QueryStream(ctx, StreamURL(m.Linkage), q, sink)
}

// QueryStream implements StreamConn for in-process sources: the whole
// answer is available at once, so the stream is a single terminal frame
// — the degenerate stream every consumer must accept anyway.
func (l *LocalConn) QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	rr, err := l.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		if serr := sink(result.StreamItem{Final: rr}); serr != nil {
			return rr, serr
		}
	}
	return rr, nil
}
