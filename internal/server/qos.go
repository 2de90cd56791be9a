package server

import (
	"fmt"
	"maps"
	"strings"
	"sync"

	"github.com/probdb/urm/internal/qos"
)

// Priority classes.  Interactive requests carry a 4× weight in the admission
// queue: under backlog they receive four grants for every batch grant, which
// keeps interactive latency flat without ever starving batch (the fair queue
// guarantees progress at any positive weight).
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"

	interactiveClassWeight = 4
	batchClassWeight       = 1
)

// TenantQoS is the per-tenant QoS configuration in Config.Tenants.
type TenantQoS struct {
	// Weight scales the tenant's share of the global admission rate and of the
	// fair queue (0 = 1).  A weight-2 tenant earns twice a weight-1 tenant's
	// rate while both are active.
	Weight float64
	// Priority is the tenant's default class, "interactive" or "batch"
	// ("" = interactive).  Requests may override it per call.
	Priority string
}

// admission is the resolved QoS identity of one request: who is asking and
// with what effective weight in the fair queue.
type admission struct {
	tenant string
	weight float64 // tenant weight × priority class weight
}

// defaultTenant is the bucket anonymous requests share.  Folding them into
// one identity is itself a QoS decision: unidentified traffic competes as a
// single tenant instead of minting a fresh full-rate bucket per request.
const defaultTenant = "default"

// maxTenantNameLen bounds tenant identifiers; they come straight from an
// attacker-controllable header.
const maxTenantNameLen = 64

// admissionFor resolves the request's tenant and effective queue weight.
func (s *Server) admissionFor(req Request) (admission, error) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = defaultTenant
	}
	if len(tenant) > maxTenantNameLen {
		return admission{}, errBadRequest("tenant name longer than %d bytes", maxTenantNameLen)
	}
	cfg := s.cfg.Tenants[tenant]
	priority := req.Priority
	if priority == "" {
		priority = cfg.Priority
	}
	var class float64
	switch priority {
	case PriorityInteractive, "":
		class = interactiveClassWeight
	case PriorityBatch:
		class = batchClassWeight
	default:
		return admission{}, errBadRequest("unknown priority %q (want %q or %q)", priority, PriorityInteractive, PriorityBatch)
	}
	weight := cfg.Weight
	if weight <= 0 {
		weight = 1
	}
	return admission{tenant: tenant, weight: weight * class}, nil
}

// maxTrackedTenants bounds the per-tenant metrics table.  Past the cap, new
// names fold into a single "other" row — the table must not be a memory
// amplifier for whoever invents the most tenant names.
const maxTrackedTenants = 256

// tenantTable holds per-tenant counters.  The map is guarded; the counters
// inside are atomics, so the hot path locks only to find its row.
type tenantTable struct {
	mu sync.Mutex
	m  map[string]*tenantRow
}

// tenantRow is one tenant's live counters.
type tenantRow struct {
	TenantCounters // first, so the atomic adds are 64-bit aligned
	queueWait      qos.Histogram
}

// get returns the tenant's counter row, folding overflow names into "other".
func (t *tenantTable) get(tenant string) *tenantRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.m[tenant]
	if !ok && len(t.m) >= maxTrackedTenants {
		tenant = "other"
		c, ok = t.m[tenant]
	}
	if !ok {
		c = &tenantRow{}
		t.m[tenant] = c
	}
	return c
}

// TenantCounters are one tenant's counters, declared once: the request path
// adds to a live copy atomically, and TenantMetrics embeds a snapshot.
type TenantCounters struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	Evaluations int64 `json:"evaluations"`
	// The shed counters split the tenant's rejections by ladder rung: over
	// its token-bucket rate, queue wait exhausted, or deadline shorter than
	// the scenario's median cold latency.
	ShedRateLimited    int64 `json:"shed_rate_limited"`
	ShedQueueTimeout   int64 `json:"shed_queue_timeout"`
	ShedDoomedDeadline int64 `json:"shed_doomed_deadline"`
	// StaleServed counts requests answered from a previous epoch's cache
	// entry instead of being rejected.
	StaleServed int64 `json:"stale_served"`
}

// TenantMetrics is the JSON form of one tenant's row in /metrics.
type TenantMetrics struct {
	TenantCounters
	// QueueWait is the distribution of measured evaluation-slot waits.
	QueueWait qos.HistogramSnapshot `json:"queue_wait"`
}

func (t *tenantTable) snapshot() map[string]TenantMetrics {
	t.mu.Lock()
	rows := maps.Clone(t.m)
	t.mu.Unlock()
	out := make(map[string]TenantMetrics, len(rows))
	for name, c := range rows {
		out[name] = TenantMetrics{loadCounters(&c.TenantCounters), c.queueWait.Snapshot()}
	}
	return out
}

// limiterWeights extracts the per-tenant rate weights from the tenant config.
func limiterWeights(tenants map[string]TenantQoS) map[string]float64 {
	if len(tenants) == 0 {
		return nil
	}
	out := make(map[string]float64, len(tenants))
	for name, t := range tenants {
		if t.Weight > 0 {
			out[name] = t.Weight
		}
	}
	return out
}

// ParseTenantSpec parses the urm-serve -tenants flag syntax:
// "name=weight[/priority]" — e.g. "gold=4/interactive".  Exported so the CLI
// and tests share one parser.
func ParseTenantSpec(name, spec string) (TenantQoS, error) {
	var t TenantQoS
	weightStr := spec
	if i := strings.IndexByte(spec, '/'); i >= 0 {
		weightStr, t.Priority = spec[:i], spec[i+1:]
		switch t.Priority {
		case PriorityInteractive, PriorityBatch:
		default:
			return t, fmt.Errorf("tenant %s: unknown priority %q", name, t.Priority)
		}
	}
	if _, err := fmt.Sscanf(weightStr, "%g", &t.Weight); err != nil || t.Weight <= 0 {
		return t, fmt.Errorf("tenant %s: bad weight %q", name, weightStr)
	}
	return t, nil
}
