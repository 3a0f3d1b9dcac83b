package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	doctagger "repro"
)

func testOptions() options {
	return options{
		protocol: "cempar",
		peers:    4,
		shards:   2,
		seed:     3,
		docsMin:  4,
		docsMax:  6,
		numTags:  4,
		maxBatch: 8,
		cache:    64,
	}
}

func newTestApp(t *testing.T) (*httptest.Server, *app, []string) {
	t.Helper()
	o := testOptions()
	build, queries, _, err := makeBuild(o)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newPool(o, build)
	if err != nil {
		t.Fatal(err)
	}
	a := &app{pool: pool, build: build, o: o}
	ts := httptest.NewServer(a.mux())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return ts, a, queries
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTagEndpoint(t *testing.T) {
	ts, a, queries := newTestApp(t)
	resp := postJSON(t, ts.URL+"/v1/tag", map[string]string{"text": queries[0]})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got struct {
		Tags []string `json:"tags"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Tags) == 0 {
		t.Error("no tags returned")
	}
	if st := a.pool.Stats(); st.Served != 1 {
		t.Errorf("served = %d, want 1", st.Served)
	}
}

func TestTagEndpointRejectsBadInput(t *testing.T) {
	ts, _, _ := newTestApp(t)
	for _, body := range []string{"not json", `{"text": ""}`, `{"text": "   "}`} {
		resp, err := http.Post(ts.URL+"/v1/tag", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
	// Wrong method on a method-qualified pattern.
	resp, err := http.Get(ts.URL + "/v1/tag")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/tag status = %d, want 405", resp.StatusCode)
	}
}

// TestTagBatchEndpoint pins the batch API against the single-document one:
// same texts, same tags, one round trip.
func TestTagBatchEndpoint(t *testing.T) {
	ts, _, queries := newTestApp(t)
	texts := []string{queries[0], queries[1%len(queries)], queries[0]}
	want := make([][]string, len(texts))
	for i, text := range texts {
		resp := postJSON(t, ts.URL+"/v1/tag", map[string]string{"text": text})
		var got struct {
			Tags []string `json:"tags"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want[i] = got.Tags
	}
	resp := postJSON(t, ts.URL+"/v1/tag/batch", map[string]any{"texts": texts})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got struct {
		Tags  [][]string `json:"tags"`
		Error string     `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Error != "" {
		t.Fatalf("batch error: %s", got.Error)
	}
	if fmt.Sprint(got.Tags) != fmt.Sprint(want) {
		t.Errorf("batch tags %v != per-document tags %v", got.Tags, want)
	}
}

func TestTagBatchEndpointRejectsBadInput(t *testing.T) {
	ts, _, queries := newTestApp(t)
	huge := make([]string, maxBatchRequestDocs+1)
	for i := range huge {
		huge[i] = queries[0]
	}
	cases := []any{
		map[string]any{"texts": []string{}},
		map[string]any{"texts": []string{queries[0], "  "}},
		map[string]any{"texts": huge},
	}
	for _, body := range cases {
		resp := postJSON(t, ts.URL+"/v1/tag/batch", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	}
}

// TestRefreshEndpoint swaps a freshly retrained generation into the live
// pool and checks the pool still answers afterwards.
func TestRefreshEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("refresh retrains the pool")
	}
	ts, a, queries := newTestApp(t)
	resp := postJSON(t, ts.URL+"/v1/refresh", map[string]any{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got struct {
		Generation int64   `json:"generation"`
		Shards     int     `json:"shards"`
		Seconds    float64 `json:"seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Generation != 2 || got.Shards != 2 {
		t.Errorf("refresh reported generation %d, shards %d", got.Generation, got.Shards)
	}
	tagResp := postJSON(t, ts.URL+"/v1/tag", map[string]string{"text": queries[0]})
	tagResp.Body.Close()
	if tagResp.StatusCode != http.StatusOK {
		t.Errorf("tag after refresh: status = %d", tagResp.StatusCode)
	}
	if st := a.pool.Stats(); st.Generation != 2 {
		t.Errorf("pool generation = %d, want 2", st.Generation)
	}
	// A draining server refuses to retrain.
	a.draining.Store(true)
	resp2 := postJSON(t, ts.URL+"/v1/refresh", map[string]any{})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("refresh while draining: status = %d, want 503", resp2.StatusCode)
	}
}

// TestReadinessFlipsOnDrain pins the load-balancer contract: /healthz
// stays ok for the process lifetime (liveness), /readyz turns 503 the
// moment draining begins, before the pool stops answering.
func TestReadinessFlipsOnDrain(t *testing.T) {
	ts, a, _ := newTestApp(t)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s before drain: status = %d", path, resp.StatusCode)
		}
	}
	a.draining.Store(true)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: status = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining: status = %d, want 200 (liveness)", resp.StatusCode)
	}
}

// TestHTTPServerClosesSlowHeader pins the edge timeouts: a client that
// never finishes its request header is disconnected once
// ReadHeaderTimeout passes, not held open forever.
func TestHTTPServerClosesSlowHeader(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout == 0 || srv.ReadTimeout == 0 || srv.WriteTimeout == 0 || srv.IdleTimeout == 0 {
		t.Fatalf("edge timeout unset: header %v read %v write %v idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/tag HTTP/1.1\r\nHost: localhost\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a half-sent header open: %v", err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _, queries := newTestApp(t)
	resp := postJSON(t, ts.URL+"/v1/tag", map[string]string{"text": queries[0]})
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st doctagger.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Served < 1 || st.Network.Messages == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Generation != 1 {
		t.Errorf("generation = %d, want 1", st.Generation)
	}
}

// TestTagAfterCloseReturns503 pins the drain contract at the HTTP layer:
// once the pool is closed, new requests get Service Unavailable rather
// than a hang or a 500.
func TestTagAfterCloseReturns503(t *testing.T) {
	ts, a, queries := newTestApp(t)
	a.pool.Close()
	resp := postJSON(t, ts.URL+"/v1/tag", map[string]string{"text": queries[0]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	batchResp := postJSON(t, ts.URL+"/v1/tag/batch", map[string]any{"texts": queries[:1]})
	batchResp.Body.Close()
	if batchResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch status = %d, want 503", batchResp.StatusCode)
	}
}
