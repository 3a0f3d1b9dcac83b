package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// genLateLimit marks a phase invalid: when an idle sender wakes this much
// after a request's due time at the 99th percentile, the client's own
// timer, not the server, set the latencies.
const genLateLimit = 10 * time.Millisecond

// newClient returns an HTTP client that keeps at most conns connections
// to any one node.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// postJSON posts body to url and decodes a 200 answer into out. closeConn
// asks for the connection to close after the exchange.
func postJSON(ctx context.Context, c *http.Client, url string, body, out any, closeConn bool) error {
	var buf io.Reader = http.NoBody
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		buf = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Close = closeConn
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// tag sends one document to POST /v1/tag.
func tag(ctx context.Context, c *http.Client, n *node, text string) ([]string, error) {
	var out struct {
		Tags []string `json:"tags"`
	}
	err := postJSON(ctx, c, n.base+"/v1/tag", map[string]string{"text": text}, &out, false)
	return out.Tags, err
}

// tagBatch sends documents to POST /v1/tag/batch; unanswered rows are nil.
func tagBatch(ctx context.Context, c *http.Client, n *node, docs []string) ([][]string, error) {
	var out struct {
		Tags [][]string `json:"tags"`
	}
	err := postJSON(ctx, c, n.base+"/v1/tag/batch", map[string][]string{"texts": docs}, &out, false)
	if err == nil && len(out.Tags) != len(docs) {
		err = fmt.Errorf("batch answer has %d rows for %d documents", len(out.Tags), len(docs))
	}
	return out.Tags, err
}

// loadResult is one phase's latencies (failures as +Inf) and its record.
type loadResult struct {
	rec     phaseRecord
	lat     durations // milliseconds
	elapsed time.Duration
	docs    int // documents answered (closed loop)
}

// sender accumulates one sender goroutine's observations.
type sender struct {
	lat, late durations
	failed    int
	lastDone  time.Time
}

// openLoop sends n requests at rate per second — request i is due at
// start + i/rate whatever happened before — over conns senders. Latency
// runs from the due time, so a stall also charges every request it
// delays. do performs request i.
func openLoop(tr *tracer, name string, rate float64, n, conns int, do func(i int) error) loadResult {
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	senders := make([]sender, conns)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func(st *sender) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d := due(i)
				if wait := time.Until(d); wait > 0 {
					time.Sleep(wait)
					st.late = append(st.late, ms(time.Since(d)))
				}
				sent := time.Now()
				err := do(i)
				done := time.Now()
				tr.root("http.request", sent, done)
				st.lastDone = done
				if err != nil {
					st.failed++
					st.lat = append(st.lat, math.Inf(1))
					continue
				}
				st.lat = append(st.lat, ms(done.Sub(d)))
			}
		}(&senders[s])
	}
	wg.Wait()
	res := loadResult{rec: phaseRecord{Name: name, RatePerS: rate, Sent: n}}
	var late durations
	var last time.Time
	for _, st := range senders {
		res.lat = append(res.lat, st.lat...)
		late = append(late, st.late...)
		res.rec.Failed += st.failed
		if st.lastDone.After(last) {
			last = st.lastDone
		}
	}
	res.rec.Succeeded = n - res.rec.Failed
	res.elapsed = last.Sub(start)
	if n > 0 {
		res.rec.BacklogMs = math.Max(0, ms(last.Sub(due(n-1))))
	}
	late = late.sorted()
	res.rec.GenLateSamples = len(late)
	res.rec.Valid = true
	if len(late) > 0 {
		res.rec.GenLateP50Ms = late.pct(0.5)
		res.rec.GenLateP99Ms = late.pct(0.99)
		res.rec.Valid = res.rec.GenLateP99Ms <= ms(genLateLimit)
	}
	res.lat = res.lat.sorted()
	return res
}

// closedLoop runs conns callers that each send their next request as soon
// as the previous one is answered, until dur has passed (or, when max > 0,
// max requests were sent). do performs request i and reports how many
// documents it carried.
func closedLoop(tr *tracer, name string, conns int, dur time.Duration, max int, do func(i int) (int, error)) loadResult {
	var next atomic.Int64
	start := time.Now()
	stopAt := start.Add(dur)
	senders := make([]sender, conns)
	docs := make([]int, conns)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := &senders[s]
			for {
				if max <= 0 && time.Now().After(stopAt) {
					return
				}
				i := int(next.Add(1) - 1)
				if max > 0 && i >= max {
					return
				}
				sent := time.Now()
				nd, err := do(i)
				done := time.Now()
				tr.root("http.request", sent, done)
				st.lastDone = done
				if err != nil {
					st.failed++
					st.lat = append(st.lat, math.Inf(1))
					continue
				}
				docs[s] += nd
				st.lat = append(st.lat, ms(done.Sub(sent)))
			}
		}(s)
	}
	wg.Wait()
	res := loadResult{rec: phaseRecord{Name: name, Valid: true}}
	var last time.Time
	for s, st := range senders {
		res.lat = append(res.lat, st.lat...)
		res.rec.Failed += st.failed
		res.docs += docs[s]
		if st.lastDone.After(last) {
			last = st.lastDone
		}
	}
	res.rec.Sent = len(res.lat)
	res.rec.Succeeded = res.rec.Sent - res.rec.Failed
	res.elapsed = last.Sub(start)
	res.lat = res.lat.sorted()
	return res
}
