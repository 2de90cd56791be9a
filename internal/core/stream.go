package core

// Cursor streams the answers of one evaluation in canonical order (descending
// probability, ties broken by canonical tuple key) without materializing the
// answer slice.  The evaluation itself runs before the cursor is handed out —
// probabilities accumulate across every mapping, so the canonical order exists
// only after aggregation — but the []Answer copy (and the per-answer
// allocations it implies) is never built: each Answer is assembled on demand
// as Next advances.
//
// Usage follows the database/sql Rows contract:
//
//	cur, err := prepared.StreamContext(ctx, opts)
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//	    a := cur.Answer()
//	    ...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Streamed answers are bit-identical, in the same order, to the Answers slice
// a materialized execution of the same prepared query returns: both paths
// read the same aggregated entries through the same sort.
type Cursor struct {
	res     *Result
	entries []*aggEntry
	next    int
	cur     Answer
}

// newCursor wraps an answer sink's sorted entries.
func newCursor(res *Result, entries []*aggEntry) *Cursor {
	return &Cursor{res: res, entries: entries}
}

// Next advances to the next answer, returning false once the cursor is
// exhausted or closed.
func (c *Cursor) Next() bool {
	if c.next >= len(c.entries) {
		return false
	}
	e := c.entries[c.next]
	c.cur = Answer{Tuple: e.tuple, Prob: e.prob}
	c.next++
	return true
}

// Answer returns the answer Next advanced to.  It is only valid after a Next
// that returned true.
func (c *Cursor) Answer() Answer { return c.cur }

// Err reports a cursor error.  Evaluation errors surface from StreamContext
// itself; iteration over the aggregated answers cannot fail, so Err exists to
// complete the Rows-style contract (check it after the Next loop) and always
// returns nil today.
func (c *Cursor) Err() error { return nil }

// Close releases the cursor's backing entries.  It is safe to call multiple
// times; Next returns false afterwards.
func (c *Cursor) Close() error {
	c.entries = nil
	c.next = 0
	return nil
}

// Len returns the total number of answers the cursor iterates over.
func (c *Cursor) Len() int { return len(c.entries) }

// Columns returns the display labels of the answer tuples (empty when the
// query has no explicit projection or aggregate).
func (c *Cursor) Columns() []string { return c.res.Columns }

// EmptyProb returns the probability that the query has no answer at all.
func (c *Cursor) EmptyProb() float64 { return c.res.EmptyProb }

// Result returns the evaluation metadata backing the cursor: query, method,
// statistics, phase timings and EmptyProb.  Its Answers slice is nil — the
// whole point of streaming — so read answers from the cursor.
func (c *Cursor) Result() *Result { return c.res }
