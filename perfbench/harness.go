package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/client"
	"repro/internal/fleet"
	"repro/internal/service"
)

// node is one solverd instance in process: the daemon's default service
// configuration served on a loopback listener.
type node struct {
	id   string
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan error
}

// quietLogger formats log lines like the daemon does but drops them, so the
// logging cost stays in the measurement without filling the output.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// startNode starts a node with solverd's flag defaults.
func startNode(id string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(service.Config{
		NodeID:       id,
		QueueDepth:   256,
		CacheSize:    64,
		HistoryLimit: 512,
		Tuning:       "adapt",
		Logger:       quietLogger(),
	})
	n := &node{id: id, svc: svc, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	n.srv = &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		_ = n.srv.Close() // the drain timed out; sever what is left
	}
	<-n.done
	n.svc.Close()
}

// env is everything a workload sends to: one node, and for the ladder's
// fleet rungs a second node behind a fleet router. front is the URL the
// workload's client uses.
type env struct {
	nodes  []*node
	router *fleet.Router
	rsrv   *http.Server
	rdone  chan error
	front  string
}

func startEnv() (*env, error) {
	n, err := startNode("n1")
	if err != nil {
		return nil, err
	}
	return &env{nodes: []*node{n}, front: n.url}, nil
}

// addRouter puts a fleet router with background health checks off in
// front of members.
func (e *env) addRouter(members []*node) error {
	var ms []fleet.Member
	for _, n := range members {
		ms = append(ms, fleet.Member{Name: n.id, URL: n.url})
	}
	r, err := fleet.New(fleet.Config{Members: ms, CheckInterval: -1, Logger: quietLogger()})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = r.Close()
		return fmt.Errorf("listen: %w", err)
	}
	e.router = r
	e.rsrv = &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.rdone = make(chan error, 1)
	go func() { e.rdone <- e.rsrv.Serve(ln) }()
	e.rsrv.Addr = ln.Addr().String()
	return nil
}

func (e *env) routerURL() string { return "http://" + e.rsrv.Addr }

func (e *env) stop() {
	if e.rsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.rsrv.Shutdown(ctx); err != nil {
			_ = e.rsrv.Close()
		}
		<-e.rdone
		_ = e.router.Close()
		e.rsrv, e.router = nil, nil
	}
	for _, n := range e.nodes {
		n.stop()
	}
	e.nodes = nil
}

// nodeByJob returns the node that minted a job id ("n2-j-000007" → n2).
func (e *env) nodeByJob(id string) (*node, bool) {
	if i := strings.LastIndex(id, "-j-"); i > 0 {
		return e.nodeByName(id[:i])
	}
	return nil, false
}

func (e *env) nodeByName(id string) (*node, bool) {
	for _, n := range e.nodes {
		if n.id == id {
			return n, true
		}
	}
	return nil, false
}

// cacheCounts sums cache hits and misses over the env's nodes.
func (e *env) cacheCounts() (hits, misses int64) {
	for _, n := range e.nodes {
		st := n.svc.Stats()
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	return hits, misses
}

// probeTransport records how many body bytes the caller read of the last
// response. One benchClient — and so one goroutine — uses it at a time.
type probeTransport struct {
	base      *http.Transport
	bodyBytes int64
}

func (t *probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.bodyBytes = 0
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bodyBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	*b.n += int64(k)
	return k, err
}

// benchClient is one closed-loop client: the SDK over its own connection
// pool, with retries off so a failure is counted, never hidden.
type benchClient struct {
	cl *client.Client
	tr *probeTransport
}

func newBenchClient(url string) *benchClient {
	tr := &probeTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	return &benchClient{
		cl: client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetry(1, 0), client.WithTimeout(2*time.Minute)),
		tr: tr,
	}
}

func (c *benchClient) close() {
	_ = c.cl.Close()
	c.tr.base.CloseIdleConnections()
}

// response is what one request returned, in a shape common to Solve and
// SolveStream.
type response struct {
	Result  repro.JobResult
	Cases   []repro.CaseResult // streamed cases by index (SolveStream only)
	Latency time.Duration      // send → final result
}

// send runs one request through the SDK and times it.
func (c *benchClient) send(ctx context.Context, req repro.Request, stream bool) (response, error) {
	var r response
	start := time.Now()
	if !stream {
		res, err := c.cl.Solve(ctx, req)
		r.Latency = time.Since(start)
		r.Result = res
		return r, err
	}
	var done *repro.JobView
	var cases []repro.CaseResult
	var evErr error
	err := c.cl.SolveStream(ctx, req, func(ev repro.CaseEvent) {
		if ev.Done != nil {
			done = ev.Done
			return
		}
		if ev.Result == nil || ev.Case < 0 {
			evErr = fmt.Errorf("stream event %d carries no case result", ev.Seq)
			return
		}
		for len(cases) <= ev.Case {
			cases = append(cases, repro.CaseResult{})
		}
		cases[ev.Case] = *ev.Result
	})
	r.Latency = time.Since(start)
	r.Cases = cases
	switch {
	case err != nil:
		return r, err
	case evErr != nil:
		return r, evErr
	case done == nil || done.Result == nil:
		return r, errors.New("stream ended without a finished job")
	}
	r.Result = *done.Result
	if done.State != repro.JobDone {
		return r, fmt.Errorf("job %s ended %s: %s", done.ID, done.State, done.Error)
	}
	return r, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU returns the machine-wide CPU time counters from /proc/stat, in
// clock ticks: the time the hypervisor stole and the total. Zeros when they
// cannot be read. The benchmark reports the share stolen during a phase as
// context in its detail line; no metric is corrected by it.
func hostCPU() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the linearly interpolated q-quantile of xs (q in [0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
