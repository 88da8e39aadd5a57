package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"contractdb/internal/insights"
	"contractdb/internal/stream"
)

// Client is a typed HTTP client for the broker server. The zero value
// is not usable; use NewClient.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for a server at base (e.g.
// "http://localhost:8080"). A nil httpClient uses
// http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, http: httpClient}
}

func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var apiErr Error
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", apiErr.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks liveness.
func (c *Client) Health() (HealthResponse, error) {
	var out HealthResponse
	err := c.do(http.MethodGet, "/v1/health", nil, &out)
	return out, err
}

// Register registers a contract.
func (c *Client) Register(name, spec string) (ContractInfo, error) {
	var out ContractInfo
	err := c.do(http.MethodPost, "/v1/contracts", RegisterRequest{Name: name, Spec: spec}, &out)
	return out, err
}

// RegisterBulk registers many contracts in one request through the
// deduplicating batch path (POST /v1/contracts/bulk). Per-entry
// outcomes come back in input order; the call succeeds as long as at
// least one contract registered.
func (c *Client) RegisterBulk(contracts []RegisterRequest, workers int) (BulkRegisterResponse, error) {
	var out BulkRegisterResponse
	err := c.do(http.MethodPost, "/v1/contracts/bulk",
		BulkRegisterRequest{Contracts: contracts, Workers: workers}, &out)
	return out, err
}

// Unregister removes a contract by name.
func (c *Client) Unregister(name string) error {
	return c.do(http.MethodDelete, "/v1/contracts/"+name, nil, nil)
}

// Checkpoint forces a durability checkpoint and returns the new
// snapshot boundary. Servers without a durable store answer 501.
func (c *Client) Checkpoint() (CheckpointResponse, error) {
	var out CheckpointResponse
	err := c.do(http.MethodPost, "/v1/checkpoint", nil, &out)
	return out, err
}

// Contracts lists registered contracts.
func (c *Client) Contracts() ([]ContractInfo, error) {
	var out []ContractInfo
	err := c.do(http.MethodGet, "/v1/contracts", nil, &out)
	return out, err
}

// Contract fetches one contract by name.
func (c *Client) Contract(name string) (ContractInfo, error) {
	var out ContractInfo
	err := c.do(http.MethodGet, "/v1/contracts/"+name, nil, &out)
	return out, err
}

// Query evaluates a temporal query; mode "" or "opt" uses the
// indexes, "scan" the unoptimized baseline.
func (c *Client) Query(spec, mode string) (QueryResponse, error) {
	return c.QueryRequest(QueryRequest{Spec: spec, Mode: mode})
}

// QueryRequest evaluates a query with full control over the request
// (find-any mode, per-request step budget).
func (c *Client) QueryRequest(req QueryRequest) (QueryResponse, error) {
	var out QueryResponse
	err := c.do(http.MethodPost, "/v1/query", req, &out)
	return out, err
}

// Metrics fetches the per-stage query metrics.
func (c *Client) Metrics() (MetricsResponse, error) {
	var out MetricsResponse
	err := c.do(http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}

// QueryLog fetches up to n query insights entries, newest first (the
// server defaults to 100 when n <= 0).
func (c *Client) QueryLog(n int) ([]*insights.Entry, error) {
	path := "/v1/querylog"
	if n > 0 {
		path += fmt.Sprintf("?n=%d", n)
	}
	var out []*insights.Entry
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// DebugBundle downloads the one-shot diagnostic tarball (gzipped tar).
// cpu > 0 asks the server to include a CPU profile sampled for that
// long (the server caps the window).
func (c *Client) DebugBundle(cpu time.Duration) ([]byte, error) {
	path := c.base + "/v1/debug/bundle"
	if cpu > 0 {
		path += "?cpu=" + cpu.String()
	}
	resp, err := c.http.Get(path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// PrometheusMetrics fetches the Prometheus text exposition from
// GET /metrics.
func (c *Client) PrometheusMetrics() (string, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return "", fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	buf, err := io.ReadAll(resp.Body)
	return string(buf), err
}

// CreateStream opens a monitored stream attached to the named
// contracts.
func (c *Client) CreateStream(name string, contracts []string) (stream.Info, error) {
	var out stream.Info
	err := c.do(http.MethodPost, "/v1/streams", StreamCreateRequest{Name: name, Contracts: contracts}, &out)
	return out, err
}

// DeleteStream closes a stream.
func (c *Client) DeleteStream(name string) error {
	return c.do(http.MethodDelete, "/v1/streams/"+url.PathEscape(name), nil, nil)
}

// Streams lists open streams.
func (c *Client) Streams() ([]stream.Info, error) {
	var out []stream.Info
	err := c.do(http.MethodGet, "/v1/streams", nil, &out)
	return out, err
}

// StreamInfo fetches one stream's contracts and statuses.
func (c *Client) StreamInfo(name string) (stream.Info, error) {
	var out stream.Info
	err := c.do(http.MethodGet, "/v1/streams/"+url.PathEscape(name), nil, &out)
	return out, err
}

// PushEvents pushes a batch of event snapshots to a stream; each inner
// slice is one instant's event set.
func (c *Client) PushEvents(name string, events [][]string) (StreamEventsResponse, error) {
	var out StreamEventsResponse
	err := c.do(http.MethodPost, "/v1/streams/"+url.PathEscape(name)+"/events", StreamEventsRequest{Events: events}, &out)
	return out, err
}

// StreamVerdicts fetches verdicts with Seq > after, long-polling up to
// wait when none are available yet.
func (c *Client) StreamVerdicts(name string, after int, wait time.Duration) (StreamVerdictsResponse, error) {
	path := fmt.Sprintf("/v1/streams/%s/verdicts?after=%d", url.PathEscape(name), after)
	if wait > 0 {
		path += "&wait=" + wait.String()
	}
	var out StreamVerdictsResponse
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}
