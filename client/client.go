// Package client is the remote mipp.Evaluator: it forwards evaluation
// requests to a mippd daemon over HTTP and returns the server's DTOs
// verbatim. Because Client and the in-process mipp.Engine implement the
// same interface and speak the same versioned wire protocol, callers swap
// local and remote evaluation without code changes — and the JSON either
// one produces for a given request is byte-identical.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"mipp"
	"mipp/api"
)

// Client evaluates against a remote mippd. It is safe for concurrent use.
type Client struct {
	baseURL string
	http    *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport tuning, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.http = hc }
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8091").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		http:    http.DefaultClient,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// RemoteError is a non-2xx response from the daemon, carrying the decoded
// error envelope.
type RemoteError struct {
	Status  int
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("mippd: %s (HTTP %d)", e.Message, e.Status)
}

// Unwrap maps the remote status back onto the service sentinel errors, so
// errors.Is works identically against local and remote evaluators. HTTP
// does not distinguish which kind of name was unknown, so a 404 matches
// both ErrUnknownWorkload and ErrUnknownJob.
func (e *RemoteError) Unwrap() []error {
	switch e.Status {
	case http.StatusNotFound:
		return []error{mipp.ErrUnknownWorkload, mipp.ErrUnknownJob}
	case http.StatusBadRequest:
		return []error{mipp.ErrBadRequest}
	case http.StatusTooManyRequests:
		return []error{mipp.ErrBusy}
	}
	return nil
}

// call POSTs req as JSON to path (or GETs when req is nil) and decodes the
// response into resp.
func (c *Client) call(ctx context.Context, method, path string, req, resp any) error {
	return c.do(ctx, method, path, req, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(resp)
	})
}

// do POSTs req as JSON to path (or GETs when req is nil) and hands a 2xx
// response body to decode.
func (c *Client) do(ctx context.Context, method, path string, req any, decode func(io.Reader) error) error {
	var body io.Reader
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return fmt.Errorf("client: encode %s request: %w", path, err)
		}
		body = bytes.NewReader(data)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	if req != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	setRequestID(hreq)
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	// Drain to EOF before closing so the transport can reuse the
	// connection — this client exists for callers issuing queries in
	// tight loops.
	defer func() {
		_, _ = io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}()
	if hresp.StatusCode/100 != 2 {
		var env api.ErrorResponse
		msg := hresp.Status
		if err := json.NewDecoder(hresp.Body).Decode(&env); err == nil && env.Error != "" {
			msg = env.Error
		}
		return &RemoteError{Status: hresp.StatusCode, Message: msg}
	}
	if err := decode(hresp.Body); err != nil {
		return fmt.Errorf("client: decode %s response: %w", path, err)
	}
	return nil
}

// answers holds the buffers evaluate and search job answers are read
// into. sync.Pool drops idle buffers within two GC cycles, so a burst of
// large answers does not pin its memory.
var answers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// callDecoded is do for the answers the api package's one-pass reader
// decodes: the body is read whole into a pooled buffer and decode reads
// resp from there, so, unlike call, anything but whitespace after the
// answer is an error.
func callDecoded[T any](c *Client, ctx context.Context, method, path string, req any, resp *T, decode func([]byte, *T) error) error {
	return c.do(ctx, method, path, req, func(body io.Reader) error {
		buf := answers.Get().(*bytes.Buffer)
		defer func() {
			buf.Reset()
			answers.Put(buf)
		}()
		if _, err := buf.ReadFrom(body); err != nil {
			return err
		}
		return decode(buf.Bytes(), resp)
	})
}

// RegisterProfile implements mipp.Evaluator.
func (c *Client) RegisterProfile(ctx context.Context, req *api.RegisterProfileRequest) (*api.RegisterProfileResponse, error) {
	resp := &api.RegisterProfileResponse{}
	if err := c.call(ctx, http.MethodPost, "/v1/profiles", req, resp); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// UploadProfile registers a locally-collected profile under name (empty
// name defaults to the profile's workload) — sugar over RegisterProfile.
func (c *Client) UploadProfile(ctx context.Context, name string, p *mipp.Profile) (*api.RegisterProfileResponse, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("client: marshal profile: %w", err)
	}
	return c.RegisterProfile(ctx, &api.RegisterProfileRequest{
		SchemaVersion: api.SchemaVersion,
		Name:          name,
		Profile:       data,
	})
}

// ProfileInfo implements mipp.Evaluator: one profile's metadata (digest,
// size, residency) via GET /v1/profiles/{name}.
func (c *Client) ProfileInfo(ctx context.Context, name string) (*api.ProfileInfoResponse, error) {
	resp := &api.ProfileInfoResponse{}
	if err := c.call(ctx, http.MethodGet, "/v1/profiles/"+url.PathEscape(name), nil, resp); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// DeleteProfile implements mipp.Evaluator: drop a registered profile via
// DELETE /v1/profiles/{name}. A 404 unwraps to mipp.ErrUnknownWorkload.
func (c *Client) DeleteProfile(ctx context.Context, name string) (*api.DeleteProfileResponse, error) {
	resp := &api.DeleteProfileResponse{}
	if err := c.call(ctx, http.MethodDelete, "/v1/profiles/"+url.PathEscape(name), nil, resp); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// Workloads implements mipp.Evaluator.
func (c *Client) Workloads(ctx context.Context) (*api.WorkloadsResponse, error) {
	resp := &api.WorkloadsResponse{}
	if err := c.call(ctx, http.MethodGet, "/v1/workloads", nil, resp); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// Fidelity reads the server's model-vs-simulator error report. wait asks
// the server to flush its sampler queue first (bounded by ctx), so a
// caller that just issued predictions reads a report covering them. A
// server without fidelity sampling answers Enabled=false with no report.
func (c *Client) Fidelity(ctx context.Context, wait bool) (*api.FidelityResponse, error) {
	path := "/v1/fidelity"
	if wait {
		path += "?wait=1"
	}
	resp := &api.FidelityResponse{}
	if err := c.call(ctx, http.MethodGet, path, nil, resp); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// Predict implements mipp.Evaluator.
func (c *Client) Predict(ctx context.Context, req *api.PredictRequest) (*api.PredictResponse, error) {
	resp := &api.PredictResponse{}
	if err := c.call(ctx, http.MethodPost, "/v1/predict", req, resp); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// Sweep implements mipp.Evaluator.
func (c *Client) Sweep(ctx context.Context, req *api.SweepRequest) (*api.SweepResponse, error) {
	resp := &api.SweepResponse{}
	if err := c.call(ctx, http.MethodPost, "/v1/sweep", req, resp); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// Evaluate implements mipp.Evaluator. The answer, the largest on the
// wire, is decoded in one pass by api.DecodeBatchResponse, so, unlike the
// other calls, anything but whitespace after it is an error.
func (c *Client) Evaluate(ctx context.Context, req *api.BatchRequest) (*api.BatchResponse, error) {
	resp := &api.BatchResponse{}
	if err := callDecoded(c, ctx, http.MethodPost, "/v1/evaluate", req, resp, api.DecodeBatchResponse); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// Pareto implements mipp.Evaluator.
func (c *Client) Pareto(ctx context.Context, req *api.ParetoRequest) (*api.ParetoResponse, error) {
	resp := &api.ParetoResponse{}
	if err := c.call(ctx, http.MethodPost, "/v1/pareto", req, resp); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// SubmitSearch implements mipp.Searcher: submit an asynchronous
// design-space search job and return its handle. Its answer, and those of
// SearchJob and CancelSearch, are decoded in one pass by
// api.DecodeSearchJobResponse, as Evaluate's are.
func (c *Client) SubmitSearch(ctx context.Context, req *api.SearchRequest) (*api.SearchJobResponse, error) {
	resp := &api.SearchJobResponse{}
	if err := callDecoded(c, ctx, http.MethodPost, "/v1/search", req, resp, api.DecodeSearchJobResponse); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// SearchJob implements mipp.Searcher: poll a job for progress and — once
// done — its report.
func (c *Client) SearchJob(ctx context.Context, id string) (*api.SearchJobResponse, error) {
	resp := &api.SearchJobResponse{}
	if err := callDecoded(c, ctx, http.MethodGet, "/v1/search/"+url.PathEscape(id), nil, resp, api.DecodeSearchJobResponse); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// CancelSearch implements mipp.Searcher: stop a running job and return its
// final snapshot.
func (c *Client) CancelSearch(ctx context.Context, id string) (*api.SearchJobResponse, error) {
	resp := &api.SearchJobResponse{}
	if err := callDecoded(c, ctx, http.MethodDelete, "/v1/search/"+url.PathEscape(id), nil, resp, api.DecodeSearchJobResponse); err != nil {
		return nil, err
	}
	return resp, checkVersion(resp.SchemaVersion)
}

// Search submits a job and polls it to completion — sugar over
// SubmitSearch + mipp.WaitSearch for callers that just want the report.
func (c *Client) Search(ctx context.Context, req *api.SearchRequest, poll time.Duration) (*api.SearchJobResponse, error) {
	sub, err := c.SubmitSearch(ctx, req)
	if err != nil {
		return nil, err
	}
	return mipp.WaitSearch(ctx, c, sub.Job.ID, poll)
}

func checkVersion(got int) error {
	if err := api.CheckVersion(got); err != nil {
		return fmt.Errorf("client: server response: %w", err)
	}
	return nil
}

// Compile-time checks: local and remote evaluation — and the async search
// surface — stay interchangeable.
var (
	_ mipp.Evaluator = (*Client)(nil)
	_ mipp.Searcher  = (*Client)(nil)
)
