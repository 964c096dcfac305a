package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one dlogd child process listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:PORT
	done chan struct{}

	mu   sync.Mutex
	tail []string // last lines of the child's log, for error reports
}

// startDaemon spawns dlogd on an ephemeral loopback port and returns
// once it accepts connections. dlogd runs at its default GOMAXPROCS.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// dlogd must not outlive the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dlogd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "dlogd: listening on "); ok {
				addrc <- a
			}
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 8 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr) // a line too long for the scanner
		_ = cmd.Wait()                     // the exit status is read from ProcessState
	}()
	select {
	case a := <-addrc:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("dlogd exited before listening: %s", d.logTail())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("dlogd did not start listening within 60s")
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop shuts dlogd down gracefully (SIGTERM), falling back to SIGKILL,
// and waits until the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
	}
}

// kill SIGKILLs dlogd and waits until the process has exited; on an
// exited process it returns at once.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// peakRSSMB is the exited child's maximum resident set size.
func (d *daemon) peakRSSMB() float64 {
	st := d.cmd.ProcessState
	if st == nil {
		return 0
	}
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// client drives one daemon over at most two keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpError is a non-2xx reply.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// call sends one request with an optional JSON body and decodes a 2xx
// JSON reply into out (when non-nil).
func (c *client) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &httpError{resp.StatusCode, strings.TrimSpace(string(b))}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

// Wire shapes of the dlogd replies the benchmark reads. They are
// declared here rather than imported, so the client sees only the JSON.
type (
	loadReq struct {
		Program string `json:"program"`
		Plan    string `json:"plan,omitempty"`
		Goal    string `json:"goal,omitempty"`
	}
	loadResp struct {
		EDBTuples int `json:"edb_tuples"`
		IDBTuples int `json:"idb_tuples"`
		Plan      *struct {
			Chosen string `json:"chosen"`
		} `json:"plan"`
	}
	queryReq struct {
		Goal   string `json:"goal"`
		Limit  int    `json:"limit,omitempty"`
		Cursor string `json:"cursor,omitempty"`
	}
	queryResp struct {
		Total      int        `json:"total"`
		NextCursor string     `json:"next_cursor"`
		Tuples     [][]string `json:"tuples"`
	}
	changesReq struct {
		Adds []string `json:"adds,omitempty"`
		Dels []string `json:"dels,omitempty"`
	}
	engineStats struct {
		Probes, IndexProbes, Derived int64
	}
	updateResp struct {
		Applied int         `json:"applied"`
		Ignored int         `json:"ignored"`
		Mode    string      `json:"mode"`
		Seq     uint64      `json:"seq"`
		Stats   engineStats `json:"stats"`
	}
	frame struct {
		Seq  uint64   `json:"seq"`
		Adds []string `json:"adds"`
		Dels []string `json:"dels"`
	}
	subscribeResp struct {
		Frames []frame `json:"frames"`
	}
	sessionStats struct {
		Incremental int64 `json:"incremental"`
		Recomputes  int64 `json:"recomputes"`
		Planner     *struct {
			CompileNs int64 `json:"compile_ns"`
		} `json:"planner"`
		Durability *struct {
			Seq         uint64 `json:"seq"`
			WALBytes    int64  `json:"wal_bytes"`
			Checkpoints int64  `json:"checkpoints"`
		} `json:"durability"`
	}
	errorBody struct {
		Error struct {
			Code      string `json:"code"`
			OldestSeq uint64 `json:"oldest_seq"`
		} `json:"error"`
	}
)

func (c *client) load(session string, req loadReq) (*loadResp, error) {
	var out loadResp
	if err := c.call("POST", "/v1/sessions/"+session, req, &out); err != nil {
		return nil, fmt.Errorf("load %s: %w", session, err)
	}
	return &out, nil
}

func (c *client) query(session string, req queryReq) (*queryResp, error) {
	var out queryResp
	if err := c.call("POST", "/v1/sessions/"+session+"/query", req, &out); err != nil {
		return nil, fmt.Errorf("query %s: %w", req.Goal, err)
	}
	return &out, nil
}

// fetchAll pages through a goal's full answer, folding every row into
// a digest; it returns the digest and the latency of each page.
func (c *client) fetchAll(session, goal string) (digest, []time.Duration, error) {
	var d digest
	var lat []time.Duration
	req := queryReq{Goal: goal, Limit: pageLimit}
	for {
		t0 := time.Now()
		resp, err := c.query(session, req)
		if err != nil {
			return d, lat, err
		}
		lat = append(lat, time.Since(t0))
		for _, row := range resp.Tuples {
			d.addRow(row)
		}
		if resp.NextCursor == "" {
			if d.n != resp.Total {
				return d, lat, fmt.Errorf("%s: paged %d rows, total says %d", goal, d.n, resp.Total)
			}
			return d, lat, nil
		}
		req.Cursor = resp.NextCursor
	}
}

// pageLimit is the page size of full-answer fetches: dlogd's maximum.
const pageLimit = 10000

func (c *client) stats(session string) (*sessionStats, error) {
	var out sessionStats
	if err := c.call("GET", "/v1/sessions/"+session+"/stats", nil, &out); err != nil {
		return nil, fmt.Errorf("stats %s: %w", session, err)
	}
	return &out, nil
}

// hist is one Prometheus histogram from /metrics, as per-bucket counts
// keyed by the bucket's inclusive upper bound (dlogd's buckets are
// log2: bucket le = 2^i - 1 holds [2^(i-1), 2^i - 1]).
type hist struct {
	bins       map[float64]float64
	sum, count float64
}

// scrape is one parse of GET /metrics: plain samples and histograms.
type scrape struct {
	samples map[string]float64
	hists   map[string]*hist
}

func (c *client) scrapeMetrics() (*scrape, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	s := &scrape{samples: map[string]float64{}, hists: map[string]*hist{}}
	h := func(name string) *hist {
		if s.hists[name] == nil {
			s.hists[name] = &hist{bins: map[float64]float64{}}
		}
		return s.hists[name]
	}
	cum := map[string]float64{} // running cumulative count per histogram
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		key := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.Contains(key, `_bucket{le="`):
			name, le, _ := strings.Cut(key, `_bucket{le="`)
			le = strings.TrimSuffix(le, `"}`)
			if le == "+Inf" {
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			h(name).bins[bound] = v - cum[name] // buckets arrive in increasing le
			cum[name] = v
		case strings.HasSuffix(key, "_sum") && !strings.Contains(key, "{"):
			h(strings.TrimSuffix(key, "_sum")).sum = v
		case strings.HasSuffix(key, "_count") && !strings.Contains(key, "{"):
			h(strings.TrimSuffix(key, "_count")).count = v
		default:
			s.samples[key] = v
		}
	}
	return s, sc.Err()
}

// since is the histogram of observations made between two scrapes.
func (s *scrape) since(before *scrape, name string) *hist {
	out := &hist{bins: map[float64]float64{}}
	a := s.hists[name]
	if a == nil {
		return out
	}
	b := before.hists[name]
	if b == nil {
		b = &hist{}
	}
	for le, n := range a.bins {
		if d := n - b.bins[le]; d > 0 {
			out.bins[le] = d
		}
	}
	out.sum, out.count = a.sum-b.sum, a.count-b.count
	return out
}

// sampleSince is a counter's increase between two scrapes.
func (s *scrape) sampleSince(before *scrape, name string) float64 {
	return s.samples[name] - before.samples[name]
}

// quantile estimates the q-quantile by linear interpolation inside the
// log2 bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	var total float64
	les := make([]float64, 0, len(h.bins))
	for le, n := range h.bins {
		les = append(les, le)
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(les)
	rank := q * total
	var cum float64
	for _, le := range les {
		n := h.bins[le]
		if cum+n >= rank {
			lo := math.Floor((le + 1) / 2)
			return lo + (le-lo)*(rank-cum)/n
		}
		cum += n
	}
	return les[len(les)-1]
}

func (h *hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}
