package jobs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the admission-control plane of the job server: who gets
// into the queue, in what order work leaves it, and what the server says
// when it refuses.  Three mechanisms compose:
//
//   - Per-tenant token buckets bound each tenant's sustained submission
//     rate (and burst) independently, so one chatty client cannot starve
//     the rest.  Tenancy is just a string key — the X-Tenant header on
//     the wire — and unknown tenants share a configurable default limit.
//   - A two-class weighted-fair queue separates interactive jobs (small
//     permutation counts, a human waiting) from bulk sweeps.  When both
//     classes are backlogged, interactive jobs get interactiveWeight pops
//     for every bulk pop; an empty class yields its slots entirely, so
//     neither class can starve the other.
//   - Load shedding turns refusal into guidance: every rejection carries
//     a Retry-After derived from the observed queue drain rate — the
//     truthful "come back when a slot will exist" number — and every
//     refusal, a tenant-bucket throttle included, is counted once in
//     jobs_shed_total by reason.
//
// All admission state lives beside the queue, guarded by its own locks,
// never by Manager.mu: a scrape or a throttle decision must not contend
// with the job table.

// JobClass partitions queued work for the weighted-fair queue.
type JobClass int

const (
	// ClassInteractive is the low-latency class: small-B jobs a caller is
	// plausibly blocked on.
	ClassInteractive JobClass = iota
	// ClassBulk is the throughput class: large sweeps and complete
	// enumerations.
	ClassBulk
	numClasses
)

func (c JobClass) String() string {
	if c == ClassInteractive {
		return "interactive"
	}
	return "bulk"
}

// classFor assigns a submission to a queue class: an explicit request
// wins, otherwise sampled jobs at or under the interactive B bound are
// interactive and everything else — including complete enumerations,
// whose permutation count is unknown until planned — is bulk.
func classFor(explicit string, canonB, interactiveMaxB int64) (JobClass, error) {
	switch explicit {
	case "":
	case "interactive":
		return ClassInteractive, nil
	case "bulk":
		return ClassBulk, nil
	default:
		return ClassBulk, fmt.Errorf("jobs: unknown job class %q (want interactive or bulk)", explicit)
	}
	if canonB > 0 && canonB <= interactiveMaxB {
		return ClassInteractive, nil
	}
	return ClassBulk, nil
}

// ErrRateLimited rejects a submission that exceeded its tenant's token
// bucket.
var ErrRateLimited = fmt.Errorf("jobs: tenant rate limit exceeded")

// OverloadError is the typed rejection of the admission plane: it wraps
// the matching sentinel (ErrQueueFull or ErrRateLimited), names the
// decision for metrics and logs, and carries the Retry-After guidance
// the HTTP layer forwards to the client.
type OverloadError struct {
	// Reason is the decision: "queue_full", "queue_wait" (predicted wait
	// exceeded the bound) or "rate_limited".
	Reason string
	// RetryAfter is when retrying is worthwhile: the token-refill time
	// for throttles, the queue-drain estimate for sheds.
	RetryAfter time.Duration
	sentinel   error
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (%s, retry after %s)", e.sentinel, e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap lets errors.Is(err, ErrQueueFull / ErrRateLimited) keep working
// on typed rejections.
func (e *OverloadError) Unwrap() error { return e.sentinel }

// ---- Token buckets ------------------------------------------------------

// TenantLimit is one tenant's token bucket shape: Rate tokens (jobs) per
// second refill, Burst tokens capacity.  A zero Rate means unlimited.
type TenantLimit struct {
	Rate  float64
	Burst float64
}

func (l TenantLimit) limited() bool { return l.Rate > 0 }

// TenantLimits configures the tenant limiter: the default bucket every
// unknown tenant gets, plus per-tenant overrides.
type TenantLimits struct {
	Default   TenantLimit
	Overrides map[string]TenantLimit
}

// ParseTenantLimits parses the -tenant-limits flag syntax: a comma-
// separated list of "rate=R" and "burst=N" (the default bucket) and
// "tenant=R:N" per-tenant overrides.  "" and "off" mean unlimited.
//
//	rate=5,burst=10,acme=50:100,probe=0.5:1
func ParseTenantLimits(s string) (TenantLimits, error) {
	var out TenantLimits
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return out, fmt.Errorf("jobs: tenant limit %q is not key=value", part)
		}
		switch k {
		case "rate":
			r, err := strconv.ParseFloat(v, 64)
			if err != nil || r < 0 {
				return out, fmt.Errorf("jobs: tenant limit rate %q", v)
			}
			out.Default.Rate = r
		case "burst":
			b, err := strconv.ParseFloat(v, 64)
			if err != nil || b < 0 {
				return out, fmt.Errorf("jobs: tenant limit burst %q", v)
			}
			out.Default.Burst = b
		default:
			rs, bs, ok := strings.Cut(v, ":")
			if !ok {
				return out, fmt.Errorf("jobs: tenant override %q is not tenant=rate:burst", part)
			}
			r, err := strconv.ParseFloat(rs, 64)
			if err != nil || r < 0 {
				return out, fmt.Errorf("jobs: tenant %q rate %q", k, rs)
			}
			b, err := strconv.ParseFloat(bs, 64)
			if err != nil || b < 0 {
				return out, fmt.Errorf("jobs: tenant %q burst %q", k, bs)
			}
			if out.Overrides == nil {
				out.Overrides = make(map[string]TenantLimit)
			}
			out.Overrides[k] = TenantLimit{Rate: r, Burst: b}
		}
	}
	if out.Default.Rate > 0 && out.Default.Burst == 0 {
		out.Default.Burst = out.Default.Rate // 1s of burst by default
	}
	for k, l := range out.Overrides {
		if l.Rate > 0 && l.Burst == 0 {
			l.Burst = l.Rate
			out.Overrides[k] = l
		}
	}
	return out, nil
}

// limitFor resolves a tenant's bucket shape.
func (t TenantLimits) limitFor(tenant string) TenantLimit {
	if l, ok := t.Overrides[tenant]; ok {
		return l
	}
	return t.Default
}

// tokenBucket is a standard refill-on-read token bucket.
type tokenBucket struct {
	limit  TenantLimit
	tokens float64
	last   time.Time
}

// take removes one token if available; otherwise it reports how long
// until one refills.
func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if !b.limit.limited() {
		return true, 0
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.limit.Rate
	} else {
		b.tokens = b.limit.Burst // a fresh bucket starts full
	}
	if b.tokens > b.limit.Burst {
		b.tokens = b.limit.Burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / b.limit.Rate * float64(time.Second))
}

// maxTenants bounds the limiter's state table; beyond it the longest-
// idle tenants are dropped (their buckets restart full — a bounded-
// memory tradeoff, not a correctness one).
const maxTenants = 4096

// tenantState is one tenant's admission record.
type tenantState struct {
	bucket   tokenBucket
	lastSeen time.Time
	// admitted / throttled counts live here (not in the registry hot
	// path) so the limiter touches at most one map entry per decision.
	admitted, throttled int64
}

// tenantLimiter owns the per-tenant buckets.
type tenantLimiter struct {
	mu     sync.Mutex
	limits TenantLimits
	states map[string]*tenantState
}

func newTenantLimiter(limits TenantLimits) *tenantLimiter {
	return &tenantLimiter{limits: limits, states: make(map[string]*tenantState)}
}

// take charges one submission to the tenant's bucket.
func (t *tenantLimiter) take(tenant string, now time.Time) (ok bool, retryAfter time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, found := t.states[tenant]
	if !found {
		st = &tenantState{bucket: tokenBucket{limit: t.limits.limitFor(tenant)}}
		if len(t.states) >= maxTenants {
			t.pruneLocked()
		}
		t.states[tenant] = st
	}
	st.lastSeen = now
	ok, retryAfter = st.bucket.take(now)
	if ok {
		st.admitted++
	} else {
		st.throttled++
	}
	return ok, retryAfter
}

// pruneLocked drops the idlest quarter of the state table.
func (t *tenantLimiter) pruneLocked() {
	type idle struct {
		name string
		seen time.Time
	}
	all := make([]idle, 0, len(t.states))
	for name, st := range t.states {
		all = append(all, idle{name, st.lastSeen})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seen.Before(all[j].seen) })
	for _, v := range all[:len(all)/4+1] {
		delete(t.states, v.name)
	}
}

// TenantStat is one tenant's admission counters, for /v1/stats.
type TenantStat struct {
	Tenant    string `json:"tenant"`
	Admitted  int64  `json:"admitted"`
	Throttled int64  `json:"throttled"`
}

// snapshot lists per-tenant counters, busiest first, capped at limit.
func (t *tenantLimiter) snapshot(limit int) []TenantStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TenantStat, 0, len(t.states))
	for name, st := range t.states {
		out = append(out, TenantStat{Tenant: name, Admitted: st.admitted, Throttled: st.throttled})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Admitted != out[j].Admitted {
			return out[i].Admitted > out[j].Admitted
		}
		return out[i].Tenant < out[j].Tenant
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func (t *tenantLimiter) active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.states)
}

// ---- Weighted-fair queue ------------------------------------------------

// fairQueue is the two-class bounded queue the workers pop from.
// Interactive pops outnumber bulk pops weight:1 while both classes are
// backlogged; an empty class cedes its slots, so a lone class drains at
// full speed and neither class starves.
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	q    [numClasses][]*job
	head [numClasses]int

	size, capTotal int
	weight, credit int
	closed         bool
	// waiting counts the workers blocked in pop.
	waiting int
}

func newFairQueue(capTotal, weight int) *fairQueue {
	q := &fairQueue{capTotal: capTotal, weight: weight, credit: weight}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// full reports whether the queue is at capacity.
func (q *fairQueue) full() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size >= q.capTotal
}

// tryPush appends j to its class, failing when the queue is full or
// closed.  j.class must be set by the caller.
func (q *fairQueue) tryPush(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.size >= q.capTotal {
		return false
	}
	q.q[j.class] = append(q.q[j.class], j)
	q.size++
	q.cond.Signal()
	return true
}

// pop blocks until a job is available or the queue is closed AND empty
// (a closed queue drains; the manager marks drained jobs cancelled).
func (q *fairQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.waiting++
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	q.waiting--
	if q.size == 0 {
		return nil, false
	}
	c := q.pickLocked()
	j := q.q[c][q.head[c]]
	q.q[c][q.head[c]] = nil // release the reference for GC
	q.head[c]++
	if q.head[c] == len(q.q[c]) {
		q.q[c] = q.q[c][:0]
		q.head[c] = 0
	}
	q.size--
	return j, true
}

// idle reports whether more workers wait in pop than there are jobs to
// take: a job pushed now would start at once.
func (q *fairQueue) idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size < q.waiting
}

// pickLocked chooses the class the next pop serves.
func (q *fairQueue) pickLocked() JobClass {
	iEmpty := q.head[ClassInteractive] == len(q.q[ClassInteractive])
	bEmpty := q.head[ClassBulk] == len(q.q[ClassBulk])
	switch {
	case iEmpty:
		return ClassBulk
	case bEmpty:
		return ClassInteractive
	case q.credit > 0:
		q.credit--
		return ClassInteractive
	default:
		q.credit = q.weight
		return ClassBulk
	}
}

// close wakes every waiter; pop drains what remains and then reports
// closed.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// lens returns the per-class backlogs.
func (q *fairQueue) lens() (interactive, bulk int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q[ClassInteractive]) - q.head[ClassInteractive],
		len(q.q[ClassBulk]) - q.head[ClassBulk]
}

func (q *fairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// ---- Drain meter --------------------------------------------------------

// drainWindow is how far back the drain meter looks when estimating the
// service rate.
const drainWindow = 30 * time.Second

// drainMeter estimates the queue's drain rate from recent job
// completions: the evidence behind every Retry-After the server emits.
type drainMeter struct {
	mu     sync.Mutex
	stamps [256]time.Time
	n      int // filled entries, <= len(stamps)
	next   int // ring write position
}

// observe records one completed job.
func (d *drainMeter) observe(now time.Time) {
	d.mu.Lock()
	d.stamps[d.next] = now
	d.next = (d.next + 1) % len(d.stamps)
	if d.n < len(d.stamps) {
		d.n++
	}
	d.mu.Unlock()
}

// ratePerSec estimates jobs/second over the recent window; 0 means "no
// evidence yet".
func (d *drainMeter) ratePerSec(now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cutoff := now.Add(-drainWindow)
	count := 0
	var earliest time.Time
	for i := 0; i < d.n; i++ {
		t := d.stamps[i]
		if t.After(cutoff) {
			count++
			if earliest.IsZero() || t.Before(earliest) {
				earliest = t
			}
		}
	}
	if count == 0 {
		return 0
	}
	span := now.Sub(earliest)
	if span < 100*time.Millisecond {
		span = 100 * time.Millisecond
	}
	return float64(count) / span.Seconds()
}

// retryAfter converts a backlog into honest client guidance: the time
// the observed drain rate needs to clear depth jobs, clamped to
// [1s, 120s].  With no observed completions yet it answers a flat 5s.
func (d *drainMeter) retryAfter(depth int, now time.Time) time.Duration {
	rate := d.ratePerSec(now)
	if rate <= 0 {
		return 5 * time.Second
	}
	est := time.Duration(float64(depth+1) / rate * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > 120*time.Second {
		est = 120 * time.Second
	}
	return est
}
