package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"mipp/api"
	"mipp/obs"
)

// The streaming consumers: iterator-style wrappers over the daemon's two
// streamed responses. Both follow the same protocol whether the peer is
// one mippd or a mipp-router fronting several.

// setRequestID stamps the X-Request-Id header: the context's id when the
// caller put one there with api.ContextWithRequestID, a fresh one
// otherwise — so every hop of a distributed call logs the same rid. When
// the caller is inside a trace span (obs.StartSpan), its span ID rides the
// X-Span-Id header too, so the server's spans nest under the caller's.
func setRequestID(req *http.Request) {
	rid := api.RequestIDFromContext(req.Context())
	if rid == "" {
		rid = api.NewRequestID()
	}
	req.Header.Set(api.RequestIDHeader, rid)
	if sp := obs.SpanFromContext(req.Context()); sp != nil {
		req.Header.Set(api.SpanIDHeader, sp.ID)
	}
}

// SweepStream is an in-flight streamed sweep. Call Next until it returns
// io.EOF, then Trailer for the run's counts; always Close.
type SweepStream struct {
	resp    *http.Response
	dec     *json.Decoder
	header  api.SweepStreamHeader
	trailer *api.SweepStreamTrailer
}

// SweepStream runs req as POST /v1/sweep?stream=1 and returns the item
// iterator. Request-level failures (bad request, unknown workload) are
// returned here as *RemoteError, exactly like Sweep.
func (c *Client) SweepStream(ctx context.Context, req *api.SweepRequest) (*SweepStream, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encode sweep request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/sweep?stream=1", bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("client: /v1/sweep: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	setRequestID(hreq)
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: /v1/sweep: %w", err)
	}
	if hresp.StatusCode/100 != 2 {
		defer func() {
			_, _ = io.Copy(io.Discard, hresp.Body)
			hresp.Body.Close()
		}()
		var env api.ErrorResponse
		msg := hresp.Status
		if err := json.NewDecoder(hresp.Body).Decode(&env); err == nil && env.Error != "" {
			msg = env.Error
		}
		return nil, &RemoteError{Status: hresp.StatusCode, Message: msg}
	}
	s := &SweepStream{resp: hresp, dec: json.NewDecoder(hresp.Body)}
	if err := s.dec.Decode(&s.header); err != nil {
		hresp.Body.Close()
		return nil, fmt.Errorf("client: decode sweep stream header: %w", err)
	}
	if err := api.CheckVersion(s.header.SchemaVersion); err != nil {
		hresp.Body.Close()
		return nil, fmt.Errorf("client: sweep stream: %w", err)
	}
	return s, nil
}

// Header returns the stream's opening frame: the workload and how many
// items will follow.
func (s *SweepStream) Header() api.SweepStreamHeader { return s.header }

// Next returns the next configuration's item, io.EOF after a clean
// trailer, or the error that truncated the stream (a trailer carrying a
// run-level error — e.g. cancellation — surfaces as that error).
func (s *SweepStream) Next() (*api.SweepItem, error) {
	// Item and trailer frames are distinguished by the trailer's
	// always-present "done" field, which no item carries.
	var frame struct {
		Index  int         `json:"index"`
		Config string      `json:"config"`
		Result *api.Result `json:"result"`
		Error  string      `json:"error"`

		Done    *bool `json:"done"`
		Results int   `json:"results"`
		Errors  int   `json:"errors"`
	}
	if err := s.dec.Decode(&frame); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("client: sweep stream ended without a trailer")
		}
		return nil, fmt.Errorf("client: decode sweep stream frame: %w", err)
	}
	if frame.Done != nil {
		s.trailer = &api.SweepStreamTrailer{
			Done:    *frame.Done,
			Results: frame.Results,
			Errors:  frame.Errors,
			Error:   frame.Error,
		}
		if frame.Error != "" {
			return nil, fmt.Errorf("client: sweep stream truncated: %s", frame.Error)
		}
		return nil, io.EOF
	}
	return &api.SweepItem{Index: frame.Index, Config: frame.Config, Result: frame.Result, Error: frame.Error}, nil
}

// Trailer returns the closing frame, once Next has returned io.EOF (nil
// before that).
func (s *SweepStream) Trailer() *api.SweepStreamTrailer { return s.trailer }

// Close releases the stream. Closing mid-stream aborts the connection
// rather than draining it — the server sees the disconnect and stops the
// sweep.
func (s *SweepStream) Close() error {
	return s.resp.Body.Close()
}

// SearchEventStream is a live subscription to one search job's events.
// Call Next until an event's Terminal() is true (the server then ends the
// stream and Next returns io.EOF); always Close.
type SearchEventStream struct {
	resp *http.Response
	br   *bufio.Reader
	// data holds the current message's data lines, reused from one
	// message to the next.
	data []byte
	// LastSeq is the Seq of the last event delivered — the value to pass
	// as after when resuming a dropped stream.
	LastSeq int
}

// SearchEvents subscribes to GET /v1/search/{id}/events. Events with
// Seq ≤ after are skipped (pass 0 for the full retained history; pass a
// previous stream's LastSeq to resume without loss). A finished job
// replays its retained events and ends the stream immediately.
func (c *Client) SearchEvents(ctx context.Context, id string, after int) (*SearchEventStream, error) {
	u := c.baseURL + "/v1/search/" + url.PathEscape(id) + "/events"
	if after > 0 {
		u += "?after=" + fmt.Sprint(after)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("client: search events: %w", err)
	}
	hreq.Header.Set("Accept", "text/event-stream")
	setRequestID(hreq)
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: search events: %w", err)
	}
	if hresp.StatusCode/100 != 2 {
		defer func() {
			_, _ = io.Copy(io.Discard, hresp.Body)
			hresp.Body.Close()
		}()
		var env api.ErrorResponse
		msg := hresp.Status
		if err := json.NewDecoder(hresp.Body).Decode(&env); err == nil && env.Error != "" {
			msg = env.Error
		}
		return nil, &RemoteError{Status: hresp.StatusCode, Message: msg}
	}
	return &SearchEventStream{resp: hresp, br: bufio.NewReader(hresp.Body)}, nil
}

// Next returns the next event, or io.EOF when the server ends the stream
// (after the terminal event). Each event is decoded in one pass by
// api.DecodeSearchEvent.
func (s *SearchEventStream) Next() (*api.SearchEvent, error) {
	s.data = s.data[:0]
	for {
		// A line longer than br's buffer comes in several fragments; a
		// data line's fragments are appended to s.data as they come.
		frag, err := s.br.ReadSlice('\n')
		data := bytes.HasPrefix(frag, dataField)
		if data {
			frag = bytes.TrimPrefix(frag[len(dataField):], []byte(" "))
		}
		mark := len(s.data)
		blank := true // the line holds nothing but line ends
		for {
			if data {
				s.data = append(s.data, frag...)
			} else if blank {
				blank = len(bytes.TrimRight(frag, "\r\n")) == 0
			}
			if !errors.Is(err, bufio.ErrBufferFull) {
				break
			}
			frag, err = s.br.ReadSlice('\n')
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("client: read event stream: %w", err)
		}
		switch {
		case data:
			s.data = s.data[:mark+len(bytes.TrimRight(s.data[mark:], "\r\n"))]
		case !blank:
			// id:/event: lines duplicate fields inside the data payload;
			// comments (":") keep the connection alive. All skippable.
		case len(s.data) == 0:
			// A stray separator or a comment-only message.
		default:
			ev := &api.SearchEvent{}
			if err := api.DecodeSearchEvent(s.data, ev); err != nil {
				return nil, fmt.Errorf("client: decode search event: %w", err)
			}
			if err := api.CheckVersion(ev.SchemaVersion); err != nil {
				return nil, fmt.Errorf("client: search event: %w", err)
			}
			s.LastSeq = ev.Seq
			return ev, nil
		}
	}
}

var dataField = []byte("data:")

// Close releases the subscription. Safe mid-stream: the server observes
// the disconnect and drops the subscriber.
func (s *SearchEventStream) Close() error {
	return s.resp.Body.Close()
}
