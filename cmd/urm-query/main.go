// Command urm-query evaluates probabilistic queries over the synthetic
// purchase-order scenario.  It is an interactive face for the library: pick a
// target schema, an evaluation method and a query (ad-hoc SQL or one of the
// paper's Table III workload queries) and inspect the probabilistic answers.
//
// Usage:
//
//	urm-query -workload 1
//	urm-query -target Noris -method q-sharing -workload 6
//	urm-query -query "SELECT orderNum FROM PO WHERE telephone = '335-1736'"
//	urm-query -workload 4 -topk 5
//	urm-query -workload 2 -method basic -parallel 8
//	urm-query -workload 1 -repeat 5           # prepared once, executed 5 times
//
// With -repeat the query is prepared once through the session API —
// reformulation and plan compilation happen on the first run only — so later
// runs show the prepared-execution speedup.
//
// Remote mode queries a running urm-serve instead of evaluating locally:
//
//	urm-query -url http://localhost:8080 -scenario excel \
//	          -tenant alice -query "SELECT orderNum FROM PO WHERE telephone = '335-1736'"
//
// When the server sheds with 429, remote mode retries with jittered
// exponential backoff honoring the server's Retry-After hint (-retries caps
// the attempts).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	urm "github.com/probdb/urm"
	"github.com/probdb/urm/internal/qos"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "urm-query:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("urm-query", flag.ContinueOnError)
	var (
		target   = fs.String("target", "Excel", "target schema: Excel, Noris or Paragon")
		mappings = fs.Int("mappings", 100, "number of possible mappings h")
		sizeMB   = fs.Float64("size", 40, "nominal source scale in MB, not bytes: 40 generates 423 rows, 100 generates 1,050 (the paper's 100 MB TPC-H instance has ~866,000)")
		seed     = fs.Uint64("seed", 42, "data-generation seed")
		method   = fs.String("method", "o-sharing", "evaluation method: basic, e-basic, e-mqo, q-sharing, o-sharing")
		strategy = fs.String("strategy", "SEF", "o-sharing operator selection strategy: SEF, SNF, Random")
		workload = fs.Int("workload", 0, "run the paper's workload query Q<n> (1-10)")
		text     = fs.String("query", "", "ad-hoc query in the library's SQL subset")
		topk     = fs.Int("topk", 0, "if positive, run the probabilistic top-k algorithm with this k")
		parallel = fs.Int("parallel", 0, "evaluation worker goroutines (0 = all cores, 1 = sequential)")
		repeat   = fs.Int("repeat", 1, "execute the query this many times; the query is prepared once, so repeats skip reformulation and plan compilation")
		stream   = fs.Bool("stream", false, "stream answers through the Rows cursor instead of materializing the result")
		limit    = fs.Int("limit", 20, "maximum number of answers to print")
		verbose  = fs.Bool("v", false, "print evaluation statistics")
		noindex  = fs.Bool("noindex", false, "disable the shared base-relation index subsystem (A/B comparison; answers are identical)")

		url      = fs.String("url", "", "query a running urm-serve at this base URL instead of evaluating locally")
		scenName = fs.String("scenario", "", "scenario name on the server (remote mode)")
		tenant   = fs.String("tenant", "", "tenant identity sent as X-URM-Tenant (remote mode)")
		priority = fs.String("priority", "", "admission class sent as X-URM-Priority: interactive or batch (remote mode)")
		retries  = fs.Int("retries", 4, "maximum attempts when the server sheds with 429; backoff honors Retry-After (remote mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected trailing arguments: %q", fs.Args())
	}

	// Reject conflicting or nonsensical flag combinations up front, before
	// paying scenario generation.
	switch {
	case *url == "" && *workload == 0 && *text == "":
		return fmt.Errorf("provide -workload <1-10> or -query \"<sql>\"")
	case *workload != 0 && *text != "":
		return fmt.Errorf("-workload and -query are mutually exclusive; pass one")
	case *repeat < 1:
		return fmt.Errorf("-repeat must be >= 1, got %d", *repeat)
	case *topk < 0:
		return fmt.Errorf("-topk must be >= 0, got %d", *topk)
	case *noindex && *repeat > 1:
		return fmt.Errorf("-noindex with -repeat compares nothing: the A/B toggle is per-process, so repeats would all run unindexed; run the tool twice instead")
	case *url == "" && (*scenName != "" || *tenant != "" || *priority != ""):
		return fmt.Errorf("-scenario, -tenant and -priority apply to remote mode; pass -url")
	}
	if *url != "" {
		// Remote mode: the server owns evaluation, so local-evaluation knobs
		// conflict rather than silently doing nothing.
		switch {
		case *text == "":
			return fmt.Errorf("remote mode needs -query (workload queries are generated from the local scenario)")
		case *scenName == "":
			return fmt.Errorf("remote mode needs -scenario <name>")
		case *stream || *noindex || *parallel != 0:
			return fmt.Errorf("-stream, -noindex and -parallel are local-evaluation flags; the server decides them")
		case *retries < 1:
			return fmt.Errorf("-retries must be >= 1, got %d", *retries)
		}
		return runRemote(*url, *scenName, *tenant, *priority, *text, *method, *strategy, *topk, *repeat, *retries, *limit)
	}

	m, err := urm.ParseMethod(*method)
	if err != nil {
		return err
	}
	s, err := urm.ParseStrategy(*strategy)
	if err != nil {
		return err
	}

	fmt.Printf("generating %s scenario (h=%d, nominal %gMB)...\n", *target, *mappings, *sizeMB)
	scenario, err := urm.NewScenario(urm.ScenarioOptions{
		Target:   *target,
		Mappings: *mappings,
		SizeMB:   *sizeMB,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("source rows: %d\n", scenario.DB.NumRows())
	if *noindex {
		scenario.DB.SetIndexing(false)
	}

	sess, err := scenario.NewSession(
		urm.WithMethod(m), urm.WithStrategy(s), urm.WithParallelism(*parallel))
	if err != nil {
		return err
	}

	var q *urm.Query
	if *workload > 0 {
		q, err = scenario.WorkloadQuery(*workload)
	} else {
		q, err = scenario.Query("adhoc", *text)
	}
	if err != nil {
		return err
	}
	fmt.Printf("query: %s\n", q)
	fmt.Printf("mappings: %d (o-ratio %.2f)\n\n", len(scenario.Mappings()), urm.ORatio(scenario.Mappings()))

	// Prepare once; every -repeat execution reuses the compiled front half.
	pq, err := sess.PrepareQuery(q)
	if err != nil {
		return err
	}
	var opts []urm.Option
	if *topk > 0 {
		opts = append(opts, urm.WithTopK(*topk))
	}

	ctx := context.Background()
	for run := 1; run <= *repeat; run++ {
		if *repeat > 1 {
			fmt.Printf("--- run %d/%d ---\n", run, *repeat)
		}
		if *stream {
			if err := streamResult(ctx, pq, opts, *limit, *verbose); err != nil {
				return err
			}
			continue
		}
		res, err := pq.Execute(ctx, opts...)
		if err != nil {
			return err
		}
		printResult(res, *limit, *verbose)
	}
	return nil
}

// streamResult drives the Rows cursor, printing up to limit answers as they
// arrive.
func streamResult(ctx context.Context, pq *urm.PreparedQuery, opts []urm.Option, limit int, verbose bool) error {
	start := time.Now()
	rows, err := pq.Stream(ctx, opts...)
	if err != nil {
		return err
	}
	defer rows.Close()
	fmt.Printf("streaming %d answers   empty-probability: %.3f   time-to-cursor: %.3fs\n",
		rows.Len(), rows.EmptyProb(), time.Since(start).Seconds())
	if cols := rows.Columns(); len(cols) > 0 {
		fmt.Printf("columns: %v\n", cols)
	}
	n := 0
	for rows.Next() {
		n++
		if n <= limit {
			a := rows.Answer()
			fmt.Printf("  %3d. %-40s  p=%.4f\n", n, a.Tuple.String(), a.Prob)
		}
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if n > limit {
		fmt.Printf("  ... (%d more)\n", n-limit)
	}
	if verbose {
		printStats(rows.Result())
	}
	return nil
}

func printResult(res *urm.Result, limit int, verbose bool) {
	fmt.Printf("method: %s   answers: %d   empty-probability: %.3f   time: %.3fs\n",
		res.Method, len(res.Answers), res.EmptyProb, res.TotalTime.Seconds())
	if len(res.Columns) > 0 {
		fmt.Printf("columns: %v\n", res.Columns)
	}
	n := len(res.Answers)
	if n > limit {
		n = limit
	}
	for i := 0; i < n; i++ {
		a := res.Answers[i]
		fmt.Printf("  %3d. %-40s  p=%.4f\n", i+1, a.Tuple.String(), a.Prob)
	}
	if len(res.Answers) > n {
		fmt.Printf("  ... (%d more)\n", len(res.Answers)-n)
	}
	if verbose {
		printStats(res)
	}
}

func printStats(res *urm.Result) {
	fmt.Printf("\nrewritten queries: %d   executed queries: %d   partitions: %d\n",
		res.RewrittenQueries, res.ExecutedQueries, res.Partitions)
	fmt.Printf("operators: %v   rows read: %d\n", res.Stats.Operators(), res.Stats.RowsRead())
	fmt.Printf("index: %d builds, %d lookups\n", res.Stats.IndexBuilds(), res.Stats.IndexLookups())
	if b, built := res.Stats.Batches(), res.Stats.ValuesBuilt(); b > 0 || built > 0 {
		sel := "n/a"
		if in := res.Stats.SelectRowsIn(); in > 0 {
			sel = fmt.Sprintf("%.1f%%", 100*float64(res.Stats.SelectRowsOut())/float64(in))
		}
		fmt.Printf("batch engine: %d batches, avg select selectivity %s, %d values built\n", b, sel, built)
	}
	fmt.Printf("phases: rewrite %.3fs, execute %.3fs, aggregate %.3fs\n",
		res.RewriteTime.Seconds(), res.ExecTime.Seconds(), res.AggregateTime.Seconds())
}

// runRemote sends the query to a urm-serve instance, retrying 429 sheds with
// jittered exponential backoff that honors the server's Retry-After hint.
func runRemote(baseURL, scenario, tenant, priority, text, method, strategy string, topk, repeat, retries, limit int) error {
	ctx := context.Background()
	for run := 1; run <= repeat; run++ {
		if repeat > 1 {
			fmt.Printf("--- run %d/%d ---\n", run, repeat)
		}
		var resp urm.QueryResponse
		start := time.Now()
		err := qos.Retry(ctx, qos.Backoff{Attempts: retries}, func(ctx context.Context) (time.Duration, bool, error) {
			return postQuery(ctx, baseURL, tenant, priority, urm.QueryRequest{
				Scenario: scenario,
				Query:    text,
				Method:   method,
				Strategy: strategy,
				TopK:     topk,
			}, &resp)
		})
		if err != nil {
			return err
		}
		printRemote(&resp, time.Since(start), limit)
	}
	return nil
}

// postQuery performs one POST /v1/query attempt, shaped for qos.Retry: a 429
// reports the server's Retry-After hint and is retryable, everything else is
// terminal.
func postQuery(ctx context.Context, baseURL, tenant, priority string, reqBody urm.QueryRequest, out *urm.QueryResponse) (time.Duration, bool, error) {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return 0, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/query", bytes.NewReader(payload))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-URM-Tenant", tenant)
	}
	if priority != "" {
		req.Header.Set("X-URM-Priority", priority)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return 0, false, json.NewDecoder(resp.Body).Decode(out)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var errBody struct {
		Error        string  `json:"error"`
		RetryAfterMS float64 `json:"retry_after_ms"`
	}
	_ = json.Unmarshal(body, &errBody)
	msg := errBody.Error
	if msg == "" {
		msg = string(body)
	}
	err = fmt.Errorf("server: %s (status %d)", msg, resp.StatusCode)
	if resp.StatusCode == http.StatusTooManyRequests {
		return time.Duration(errBody.RetryAfterMS * float64(time.Millisecond)), true, err
	}
	return 0, false, err
}

func printRemote(resp *urm.QueryResponse, elapsed time.Duration, limit int) {
	origin := "evaluated"
	switch {
	case resp.Stale:
		origin = fmt.Sprintf("STALE (epoch %d)", resp.Epoch)
	case resp.Cached:
		origin = "cached"
	case resp.Coalesced:
		origin = "coalesced"
	}
	fmt.Printf("method: %s   answers: %d   empty-probability: %.3f   %s   round-trip: %.3fs\n",
		resp.Method, len(resp.Answers), resp.EmptyProb, origin, elapsed.Seconds())
	if len(resp.Columns) > 0 {
		fmt.Printf("columns: %v\n", resp.Columns)
	}
	n := len(resp.Answers)
	if n > limit {
		n = limit
	}
	for i := 0; i < n; i++ {
		a := resp.Answers[i]
		fmt.Printf("  %3d. %-40v  p=%.4f\n", i+1, a.Values, a.Prob)
	}
	if len(resp.Answers) > n {
		fmt.Printf("  ... (%d more)\n", len(resp.Answers)-n)
	}
}
