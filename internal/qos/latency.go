package qos

import (
	"slices"
	"sync"
	"time"
)

const (
	// latencyWindow is how many recent observations a tracker keeps.
	latencyWindow = 64
	// latencyMinSamples is how many observations P50 needs before it reports:
	// shedding on one or two early outliers would reject real work on noise.
	latencyMinSamples = 8
)

// LatencyTracker keeps a sliding window of recent cold-evaluation durations
// for one scenario and reports their median.  The median is the shed ladder's
// crystal ball: a request whose remaining deadline is below the p50 cold
// latency is more likely than not to burn an evaluation slot and still time
// out, so the server rejects it before admission instead.
type LatencyTracker struct {
	mu      sync.Mutex
	samples [latencyWindow]time.Duration
	n       int // filled entries, saturates at latencyWindow
	next    int // ring write position
}

// Observe records one evaluation duration.  Non-positive durations are
// dropped — a skewed clock must not poison the estimate.
func (t *LatencyTracker) Observe(d time.Duration) {
	if d <= 0 {
		return
	}
	t.mu.Lock()
	t.samples[t.next] = d
	t.next = (t.next + 1) % latencyWindow
	if t.n < latencyWindow {
		t.n++
	}
	t.mu.Unlock()
}

// P50 returns the median of the window, and false until enough samples have
// accumulated for the estimate to be trustworthy.
func (t *LatencyTracker) P50() (time.Duration, bool) {
	t.mu.Lock()
	n := t.n
	if n < latencyMinSamples {
		t.mu.Unlock()
		return 0, false
	}
	var window [latencyWindow]time.Duration
	buf := window[:n]
	copy(buf, t.samples[:n])
	t.mu.Unlock()
	slices.Sort(buf)
	return buf[n/2], true
}
