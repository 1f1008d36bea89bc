package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Transport wraps an http.RoundTripper with the fault schedule's
// cluster-RPC sites: "rpc.shard" (shard dispatch), "rpc.push" (dataset
// push) and "rpc.join" (membership).  An error fault on the call site
// fails the round trip before it leaves (a partitioned worker); a delay
// fault stalls it; a corrupt or shortread fault on the
// "<site>.resp" sub-site (so "rpc.shard.resp:corrupt", or "rpc.shard*"
// covering both) mutates the RESPONSE body, which the coordinator's CRC
// check must catch.  With no injector installed the wrapper adds one
// atomic load per request.
type Transport struct {
	// Base performs the real round trips; nil uses
	// http.DefaultTransport.
	Base http.RoundTripper
}

// rpcSite classifies a request path into a fault site.
func rpcSite(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/cluster/v1/shards"):
		return "rpc.shard"
	case strings.HasSuffix(p, "/cluster/v1/workers"):
		return "rpc.join"
	case strings.HasSuffix(p, "/v1/datasets") && (req.Method == "PUT" || req.Method == "POST"):
		return "rpc.push"
	}
	return "rpc.other"
}

// RoundTrip implements http.RoundTripper.
func (t Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if current.Load() == nil {
		return base.RoundTrip(req)
	}
	site := rpcSite(req)
	if err := Before(site, req.URL.Host); err != nil {
		return nil, fmt.Errorf("faultinject: %s to %s: %w", site, req.URL.Host, err)
	}
	resp, err := base.RoundTrip(req)
	if err != nil || resp == nil || resp.Body == nil {
		return resp, err
	}
	// MutateRead decides AFTER the round trip whether this response's
	// body is corrupted; reading the body here is acceptable because the
	// hook only runs with an injector installed (tests).
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	mutated := MutateRead(site+".resp", body)
	resp.Body = io.NopCloser(bytes.NewReader(mutated))
	resp.ContentLength = int64(len(mutated))
	return resp, nil
}
