package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"sprint/internal/httpapi"
)

// This file is the one client loop every workload and every HTTP rung of
// the traced ladder drives: a job is POST /v1/jobs, poll GET
// /v1/jobs/{id} until terminal, GET /v1/jobs/{id}/result fully read.

// jobTimeout bounds one job end to end; a job still running after it is
// a failed op.
const jobTimeout = 60 * time.Second

// client talks to one pmaxtd base URL.
type client struct {
	hc   *http.Client
	base string
	poll time.Duration
	tr   *tracer // nil outside the traced run
}

func newHTTPClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return &http.Client{Transport: t}
}

// outcome is what one finished job looked like from the client.
type outcome struct {
	// start is taken just before the POST, end right after the last
	// result byte arrived.
	start, end time.Time
	submitMS   float64 // POST /v1/jobs
	resultMS   float64 // GET /v1/jobs/{id}/result
	polls      int
	status     httpapi.StatusJSON // the terminal status document
	result     httpapi.ResultJSON
}

func (o *outcome) ms() float64 { return o.end.Sub(o.start).Seconds() * 1000 }

// do sends one request and returns the fully read body; any non-2xx
// status is an error carrying the body.
func (c *client) do(ctx context.Context, method, path, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// putDataset uploads one .spb body and returns the dataset id.
func (c *client) putDataset(ctx context.Context, spb []byte) (string, error) {
	data, err := c.do(ctx, http.MethodPut, "/v1/datasets", httpapi.SPBContentType, spb)
	if err != nil {
		return "", err
	}
	var info httpapi.DatasetUploadJSON
	if err := json.Unmarshal(data, &info); err != nil {
		return "", fmt.Errorf("decoding dataset upload reply: %w", err)
	}
	if info.ID == "" {
		return "", fmt.Errorf("dataset upload reply carries no id: %s", data)
	}
	return info.ID, nil
}

// runJob submits body and follows the job to its result.  parent and op
// label the spans of the traced run.
func (c *client) runJob(ctx context.Context, body []byte, parent spanID, op int) (*outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	out := &outcome{start: time.Now()}
	t0 := out.start
	end := c.tr.begin("httpapi.submit", parent, op)
	data, err := c.do(ctx, http.MethodPost, "/v1/jobs", "application/json", body)
	end()
	if err != nil {
		return nil, err
	}
	out.submitMS = time.Since(t0).Seconds() * 1000
	var st httpapi.StatusJSON
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decoding submit reply: %w", err)
	}

	end = c.tr.begin("httpapi.poll", parent, op)
	for st.State != "done" {
		switch st.State {
		case "queued", "running":
		default:
			end()
			return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			end()
			return nil, fmt.Errorf("job %s: %w", st.ID, ctx.Err())
		case <-time.After(c.poll):
		}
		data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, "", nil)
		if err != nil {
			end()
			return nil, err
		}
		out.polls++
		st = httpapi.StatusJSON{}
		if err := json.Unmarshal(data, &st); err != nil {
			end()
			return nil, fmt.Errorf("decoding status: %w", err)
		}
	}
	end()
	out.status = st

	t0 = time.Now()
	end = c.tr.begin("httpapi.result", parent, op)
	data, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", "", nil)
	end()
	if err != nil {
		return nil, err
	}
	out.end = time.Now()
	out.resultMS = out.end.Sub(t0).Seconds() * 1000
	if err := json.Unmarshal(data, &out.result); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	return out, nil
}

// scrape fetches /metrics and sums every series of a family, so
// labelled families (per route, per reason, per kind) read as one
// number; histogram buckets are skipped, _sum and _count kept.
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	data, err := c.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	return parseExposition(data), nil
}
