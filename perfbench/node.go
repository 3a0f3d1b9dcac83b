package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// node is one running p2pserve process.
type node struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	mesh string // mesh listen address, empty when standalone
	done chan struct{}
	err  error // the process's exit status, valid once done is closed
	logs *tailBuffer
}

// startNode launches bin with args plus a free loopback HTTP port, and a
// mesh port when mesh is set (joining the addresses in join).
func startNode(bin string, args []string, mesh bool, join []string) (*node, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	n := &node{base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{}), logs: &tailBuffer{max: 8 << 10}}
	args = append(append([]string(nil), args...), "-addr", "127.0.0.1:"+strconv.Itoa(port))
	if mesh {
		mp, err := freePort()
		if err != nil {
			return nil, err
		}
		n.mesh = "127.0.0.1:" + strconv.Itoa(mp)
		args = append(args, "-mesh", n.mesh)
		if len(join) > 0 {
			args = append(args, "-mesh-join", strings.Join(join, ","))
		}
	}
	n.cmd = exec.Command(bin, args...)
	// If the benchmark itself is killed, its servers go with it.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	n.cmd.Stdout = n.logs
	n.cmd.Stderr = n.logs
	if err := n.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start p2pserve: %w", err)
	}
	go func() {
		n.err = n.cmd.Wait()
		close(n.done)
	}()
	return n, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitUntil polls cond every millisecond until it holds, the process
// exits, or the timeout passes.
func (n *node) waitUntil(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		select {
		case <-n.done:
			return fmt.Errorf("p2pserve exited before %s: %v\n%s", what, n.err, n.logs)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("p2pserve not %s after %v\n%s", what, timeout, n.logs)
		}
		time.Sleep(time.Millisecond)
	}
}

func (n *node) ready(c *http.Client) bool {
	resp, err := c.Get(n.base + "/readyz")
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK
}

// rssMB reads one resident-set field of the process's /proc status
// ("VmRSS:" now, "VmHWM:" peak) in MiB.
func (n *node) rssMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(n.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssSampler sums the resident sets of a cluster's processes every 100 ms
// until halted.
type rssSampler struct {
	once    sync.Once
	stop    chan struct{}
	done    chan struct{}
	samples durations // MiB; read only after done is closed
}

func sampleRSS(nodes []*node) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var sum float64
			for _, n := range nodes {
				v, err := n.rssMB("VmRSS:")
				if err != nil {
					return // the process is gone
				}
				sum += v
			}
			s.samples = append(s.samples, sum)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// halt stops sampling and returns the samples taken.
func (s *rssSampler) halt() durations {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return s.samples
}

// stop drains the process with SIGTERM, as an operator would, and kills
// it if the drain does not finish; it returns once the process is gone.
func (n *node) stop() {
	select {
	case <-n.done:
		return
	default:
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
	case <-time.After(20 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.done
	}
}

// stats is the part of GET /v1/stats the benchmark reads.
type stats struct {
	Issued, Served, Deduped, Coalesced, CacheHits int64
	Batches, BatchedDocs                          int64
	QueueWaitTotal                                int64 // nanoseconds
	Network                                       struct{ Messages, Bytes int64 }
	Mesh                                          *struct {
		Peers     []string `json:"peers"`
		Transport struct {
			Rejects int64 `json:"rejects"`
		} `json:"transport"`
		Generation *struct {
			Seq uint64 `json:"seq"`
		} `json:"generation"`
	} `json:"mesh"`
}

func (n *node) stats(ctx context.Context, c *http.Client) (stats, error) {
	var s stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/v1/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return s, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// identityHolds checks the serving accounting identity.
func (s stats) identityHolds() bool {
	return s.Issued == s.Served+s.CacheHits+s.Coalesced+s.Deduped
}

// tailBuffer keeps the last max bytes a process wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}
