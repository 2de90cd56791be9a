package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	urm "github.com/probdb/urm"
	"github.com/probdb/urm/internal/engine"
)

// The fixture is urm-serve's defaults, data seed included: at 423 source rows
// the count of rows carrying the workload's hot values — and with it every
// evaluation time — swings severalfold between data seeds, so the data is
// pinned and the benchmark's seed drives the traffic instead (request order,
// Zipf draws, the append stream).
const (
	fixtureTarget   = "Excel"
	fixtureMappings = 100
	fixtureSizeMB   = 40
	fixtureDataSeed = 42

	// numClients is the closed-loop client count of every read workload; it
	// stays at or below the core count of the smallest box the benchmark runs
	// on, so clients never queue behind each other for a CPU.
	numClients = 2
)

var allMethods = []urm.Method{urm.Basic, urm.EBasic, urm.EMQO, urm.QSharing, urm.OSharing}

// sharedMethods are the three methods that evaluate through the batch
// pipeline under mapping-level sharing, and the only ones a coordinator can
// distribute besides basic.
var sharedMethods = []urm.Method{urm.EBasic, urm.EMQO, urm.QSharing}

// newScenario generates the fixture scenario with h possible mappings:
// fixtureMappings everywhere but in the smoke run.
func newScenario(h int) (*urm.Scenario, error) {
	return urm.NewScenario(urm.ScenarioOptions{
		Target:   fixtureTarget,
		Mappings: h,
		SizeMB:   fixtureSizeMB,
		Seed:     fixtureDataSeed,
	})
}

// serverConfig is the fixed server shape: two evaluation slots and a one
// second queue wait, so the offered load is the same on any machine.
func serverConfig() urm.ServerConfig {
	return urm.ServerConfig{MaxConcurrent: 2, QueueWait: time.Second, Parallelism: 1}
}

// queryTexts returns the canonical SQL of the Table III queries Q1..Q5,
// indexed by id (index 0 unused).
func queryTexts(sc *urm.Scenario) ([]string, error) {
	texts := make([]string, 6)
	for id := 1; id <= 5; id++ {
		q, err := sc.WorkloadQuery(id)
		if err != nil {
			return nil, err
		}
		if texts[id], err = q.SQL(); err != nil {
			return nil, fmt.Errorf("Q%d has no canonical text: %w", id, err)
		}
	}
	return texts, nil
}

// endpoint is one loopback HTTP listener serving a handler.
type endpoint struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // always returns ErrServerClosed after close
	}()
	return e, nil
}

func (e *endpoint) close() {
	_ = e.hs.Close()
	<-e.done
}

// node is one urm.Server behind a loopback listener.
type node struct {
	srv *urm.Server
	ep  *endpoint
}

// startNode serves srv, through the tracer's handler span when tr is on.
func startNode(srv *urm.Server, tr *tracer) (*node, error) {
	ep, err := listen(tr.wrap(srv))
	if err != nil {
		return nil, err
	}
	return &node{srv: srv, ep: ep}, nil
}

// close drains the server (which also stops its delta maintainer) and closes
// the listener.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.srv.Drain(ctx) // a drain timeout only means a request was abandoned mid-flight
	n.ep.close()
}

// newHTTPClient returns a client holding at most conns idle connections, one
// per closed-loop caller.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
		},
	}
}

func closeClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// cell is one (query, method) pair of the paper's evaluation grid.
type cell struct {
	query  int
	method urm.Method
}

func (c cell) String() string { return fmt.Sprintf("Q%d/%s", c.query, c.method) }

// request is one prepared POST /v1/query: its body and, where the answer
// does not change during the run, the reference it must reproduce.
type request struct {
	cell cell
	body []byte
	ref  *reference
	// background marks a request that loads the server without being a class
	// of the gated latency.
	background bool
}

func queryBody(scenario, text string, m urm.Method) ([]byte, error) {
	return json.Marshal(urm.QueryRequest{Scenario: scenario, Query: text, Method: m.String()})
}

// wireResponse is the part of a /v1/query response the benchmark reads.
type wireResponse struct {
	Epoch   uint64 `json:"epoch"`
	Answers []struct {
		Values []any   `json:"values"`
		Prob   float64 `json:"prob"`
	} `json:"answers"`
	EmptyProb   float64 `json:"empty_prob"`
	Cached      bool    `json:"cached"`
	Coalesced   bool    `json:"coalesced"`
	Stale       bool    `json:"stale"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// post sends one JSON body and returns the status and the response bytes.
func post(c *http.Client, url string, body []byte, traceID uint64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != 0 {
		setTraceHeader(req, traceID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// reference is a library answer in the form it takes on the wire: JSON has
// one number type, so ints and floats are both compared as float64, which is
// exact for every value the generator emits (all below 2^53).
type reference struct {
	values    [][]any
	probs     []float64
	emptyProb float64
}

func newReference(res *urm.Result) *reference {
	r := &reference{emptyProb: res.EmptyProb}
	for _, a := range res.Answers {
		vals := make([]any, len(a.Tuple))
		for i, v := range a.Tuple {
			switch v.Kind {
			case engine.KindString:
				vals[i] = v.Str
			case engine.KindInt:
				vals[i] = float64(v.Int)
			case engine.KindFloat:
				vals[i] = v.Float
			}
		}
		r.values = append(r.values, vals)
		r.probs = append(r.probs, a.Prob)
	}
	return r
}

// newSession opens a sequential library session over the scenario.
func newSession(sc *urm.Scenario) (*urm.Session, error) {
	return sc.NewSession(urm.WithParallelism(1))
}

// libraryReference evaluates the query through a library session — the
// reference every served answer must equal, tuple for tuple, bit for bit and
// in order.  Sessions read the instance's current rows, so one session serves
// every epoch of a growing instance.
func libraryReference(sess *urm.Session, text string, m urm.Method) (*reference, error) {
	pq, err := sess.Prepare(text)
	if err != nil {
		return nil, err
	}
	res, err := pq.Execute(context.Background(), urm.WithMethod(m))
	if err != nil {
		return nil, err
	}
	return newReference(res), nil
}

// check reports how the served answers differ from the reference, nil when
// they are identical.
func (r *reference) check(w *wireResponse) error {
	if len(w.Answers) != len(r.probs) {
		return fmt.Errorf("%d answers, reference has %d", len(w.Answers), len(r.probs))
	}
	if w.EmptyProb != r.emptyProb {
		return fmt.Errorf("empty_prob %v, reference %v", w.EmptyProb, r.emptyProb)
	}
	for i, a := range w.Answers {
		if a.Prob != r.probs[i] {
			return fmt.Errorf("answer %d: prob %v, reference %v", i, a.Prob, r.probs[i])
		}
		if len(a.Values) != len(r.values[i]) {
			return fmt.Errorf("answer %d: %d values, reference %d", i, len(a.Values), len(r.values[i]))
		}
		for j, v := range a.Values {
			if v != r.values[i][j] {
				return fmt.Errorf("answer %d value %d: %v, reference %v", i, j, v, r.values[i][j])
			}
		}
	}
	return nil
}
