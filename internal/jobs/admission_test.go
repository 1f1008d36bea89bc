package jobs

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprint/internal/core"
)

// optB builds sampled-run options with a distinct seed per B so specs
// with different B never collide in the result cache.
func optB(b int64) core.Options {
	return core.Options{B: b, FixedSeedSampling: "y", Seed: uint64(b)}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		explicit string
		b, maxB  int64
		want     JobClass
		wantErr  bool
	}{
		{"interactive", 1 << 40, 100, ClassInteractive, false},
		{"bulk", 1, 100, ClassBulk, false},
		{"", 100, 100, ClassInteractive, false},
		{"", 101, 100, ClassBulk, false},
		{"", 0, 100, ClassBulk, false}, // complete enumeration: size unknown
		{"batch", 1, 100, ClassBulk, true},
	}
	for _, c := range cases {
		got, err := classFor(c.explicit, c.b, c.maxB)
		if (err != nil) != c.wantErr || (err == nil && got != c.want) {
			t.Errorf("classFor(%q, %d, %d) = %v, %v; want %v (err %v)",
				c.explicit, c.b, c.maxB, got, err, c.want, c.wantErr)
		}
	}
}

func TestParseTenantLimits(t *testing.T) {
	l, err := ParseTenantLimits("rate=5,burst=10,acme=50:100,probe=0.5:1")
	if err != nil {
		t.Fatal(err)
	}
	if l.Default != (TenantLimit{Rate: 5, Burst: 10}) {
		t.Fatalf("default %+v", l.Default)
	}
	if l.Overrides["acme"] != (TenantLimit{Rate: 50, Burst: 100}) {
		t.Fatalf("acme %+v", l.Overrides["acme"])
	}
	if l.Overrides["probe"] != (TenantLimit{Rate: 0.5, Burst: 1}) {
		t.Fatalf("probe %+v", l.Overrides["probe"])
	}
	// burst defaults to rate when omitted
	l, err = ParseTenantLimits("rate=3")
	if err != nil || l.Default.Burst != 3 {
		t.Fatalf("rate-only default %+v (%v)", l.Default, err)
	}
	// off and empty mean unlimited
	for _, s := range []string{"", "off", "  "} {
		l, err = ParseTenantLimits(s)
		if err != nil || l.Default.limited() {
			t.Fatalf("%q parsed to %+v (%v)", s, l, err)
		}
	}
	for _, bad := range []string{"rate", "rate=x", "acme=5", "acme=a:b", "rate=-1"} {
		if _, err := ParseTenantLimits(bad); err == nil {
			t.Errorf("ParseTenantLimits(%q) accepted", bad)
		}
	}
}

// TestTokenBucketProperties checks the limiter contract: burst honoured,
// sustained rate honoured, honest retry-after.
func TestTokenBucketProperties(t *testing.T) {
	now := time.Unix(1000, 0)
	b := tokenBucket{limit: TenantLimit{Rate: 2, Burst: 4}}

	// A fresh bucket admits exactly the burst.
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := b.take(now); ok {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("burst admitted %d, want 4", admitted)
	}
	// Empty bucket: retry-after is the refill time of one token (0.5s at
	// rate 2).
	ok, retry := b.take(now)
	if ok || retry <= 0 || retry > time.Second {
		t.Fatalf("empty bucket take = %v, %v", ok, retry)
	}
	// After 1 second, exactly 2 tokens refilled.
	now = now.Add(time.Second)
	admitted = 0
	for i := 0; i < 10; i++ {
		if ok, _ := b.take(now); ok {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("refill admitted %d, want 2", admitted)
	}
	// Idle time never accumulates beyond the burst.
	now = now.Add(time.Hour)
	admitted = 0
	for i := 0; i < 10; i++ {
		if ok, _ := b.take(now); ok {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("post-idle admitted %d, want burst 4", admitted)
	}
	// An unlimited bucket never refuses.
	u := tokenBucket{}
	for i := 0; i < 1000; i++ {
		if ok, _ := u.take(now); !ok {
			t.Fatal("unlimited bucket refused")
		}
	}
}

func TestTenantLimiterIsolation(t *testing.T) {
	lim := newTenantLimiter(TenantLimits{
		Default:   TenantLimit{Rate: 1, Burst: 1},
		Overrides: map[string]TenantLimit{"vip": {Rate: 1000, Burst: 1000}},
	})
	now := time.Unix(5000, 0)
	if ok, _ := lim.take("noisy", now); !ok {
		t.Fatal("first take refused")
	}
	if ok, _ := lim.take("noisy", now); ok {
		t.Fatal("noisy tenant exceeded its burst unthrottled")
	}
	// Another tenant is unaffected by noisy's empty bucket.
	if ok, _ := lim.take("quiet", now); !ok {
		t.Fatal("quiet tenant throttled by noisy's bucket")
	}
	// The override applies.
	for i := 0; i < 500; i++ {
		if ok, _ := lim.take("vip", now); !ok {
			t.Fatal("vip throttled under its override")
		}
	}
	stats := lim.snapshot(0)
	byName := map[string]TenantStat{}
	for _, s := range stats {
		byName[s.Tenant] = s
	}
	if s := byName["noisy"]; s.Admitted != 1 || s.Throttled != 1 {
		t.Fatalf("noisy stats %+v", s)
	}
	if s := byName["vip"]; s.Admitted != 500 {
		t.Fatalf("vip stats %+v", s)
	}
	if lim.active() != 3 {
		t.Fatalf("active = %d, want 3", lim.active())
	}
}

func qjob(class JobClass) *job {
	return &job{class: class}
}

// TestFairQueueWeightedInterleave pins the pop order when both classes
// are backlogged: weight interactive pops per bulk pop.
func TestFairQueueWeightedInterleave(t *testing.T) {
	q := newFairQueue(64, 2)
	for i := 0; i < 9; i++ {
		if !q.tryPush(qjob(ClassBulk)) {
			t.Fatal("push failed")
		}
	}
	for i := 0; i < 6; i++ {
		if !q.tryPush(qjob(ClassInteractive)) {
			t.Fatal("push failed")
		}
	}
	var order []JobClass
	for q.len() > 0 {
		j, ok := q.pop()
		if !ok {
			t.Fatal("pop reported closed")
		}
		order = append(order, j.class)
	}
	// credit starts at weight=2: I I B I I B I I B B B B B B B
	want := []JobClass{
		ClassInteractive, ClassInteractive, ClassBulk,
		ClassInteractive, ClassInteractive, ClassBulk,
		ClassInteractive, ClassInteractive, ClassBulk,
		ClassBulk, ClassBulk, ClassBulk, ClassBulk, ClassBulk, ClassBulk,
	}
	if len(order) != len(want) {
		t.Fatalf("popped %d jobs, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop %d = %v, order %v, want %v", i, order[i], order, want)
		}
	}
}

// TestFairQueueNoStarvation is the fairness property: with both classes
// continuously backlogged, any window of weight+1 consecutive pops serves
// at least one job of each class.
func TestFairQueueNoStarvation(t *testing.T) {
	const weight = 4
	q := newFairQueue(512, weight)
	for i := 0; i < 200; i++ {
		q.tryPush(qjob(ClassBulk))
		q.tryPush(qjob(ClassInteractive))
	}
	var order []JobClass
	for q.len() > 0 {
		j, _ := q.pop()
		order = append(order, j.class)
	}
	// Both classes stay backlogged for the first 2*200 - ~... pops; check
	// windows while both are still present.
	remaining := map[JobClass]int{ClassInteractive: 200, ClassBulk: 200}
	for i := 0; i+weight+1 <= len(order); i++ {
		if remaining[ClassInteractive] == 0 || remaining[ClassBulk] == 0 {
			break
		}
		window := order[i : i+weight+1]
		seen := map[JobClass]bool{}
		for _, c := range window {
			seen[c] = true
		}
		if !seen[ClassInteractive] || !seen[ClassBulk] {
			t.Fatalf("window at %d = %v starves a class", i, window)
		}
		remaining[order[i]]--
	}
}

func TestFairQueueCapacityAndClose(t *testing.T) {
	q := newFairQueue(2, 4)
	if !q.tryPush(qjob(ClassBulk)) || !q.tryPush(qjob(ClassInteractive)) {
		t.Fatal("pushes under capacity failed")
	}
	if !q.full() || q.tryPush(qjob(ClassBulk)) {
		t.Fatal("over-capacity push admitted")
	}
	q.close()
	// A closed queue drains what it holds, then reports closed.
	if _, ok := q.pop(); !ok {
		t.Fatal("drain pop 1 failed")
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("drain pop 2 failed")
	}
	if j, ok := q.pop(); ok || j != nil {
		t.Fatal("pop on drained closed queue did not report closed")
	}
	if q.tryPush(qjob(ClassBulk)) {
		t.Fatal("push accepted after close")
	}
}

// TestFairQueueConcurrent drives pushers against poppers under -race and
// requires every accepted job to be popped exactly once.
func TestFairQueueConcurrent(t *testing.T) {
	q := newFairQueue(1024, 4)
	const pushers, per = 4, 500

	var pushed sync.Map
	var wgPush sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wgPush.Add(1)
		go func() {
			defer wgPush.Done()
			for i := 0; i < per; i++ {
				class := ClassBulk
				if i%3 == 0 {
					class = ClassInteractive
				}
				j := qjob(class)
				for !q.tryPush(j) {
					time.Sleep(time.Microsecond)
				}
				pushed.Store(j, true)
			}
		}()
	}

	var mu sync.Mutex
	popped := make(map[*job]int)
	var wgPop sync.WaitGroup
	for w := 0; w < 3; w++ {
		wgPop.Add(1)
		go func() {
			defer wgPop.Done()
			for {
				j, ok := q.pop()
				if !ok {
					return
				}
				mu.Lock()
				popped[j]++
				mu.Unlock()
			}
		}()
	}
	wgPush.Wait()
	q.close()
	wgPop.Wait()

	count := 0
	pushed.Range(func(k, _ any) bool {
		count++
		if n := popped[k.(*job)]; n != 1 {
			t.Fatalf("a job was popped %d times", n)
		}
		return true
	})
	if count != pushers*per {
		t.Fatalf("pushed %d, want %d", count, pushers*per)
	}
}

func TestDrainMeter(t *testing.T) {
	var d drainMeter
	now := time.Unix(9000, 0)
	// No evidence: flat 5s guidance.
	if got := d.retryAfter(10, now); got != 5*time.Second {
		t.Fatalf("no-data retryAfter = %v", got)
	}
	// 10 completions over 10 seconds: ~1 job/s.
	for i := 0; i < 10; i++ {
		d.observe(now.Add(time.Duration(i) * time.Second))
	}
	now = now.Add(10 * time.Second)
	rate := d.ratePerSec(now)
	if rate < 0.5 || rate > 2 {
		t.Fatalf("rate = %v, want ~1", rate)
	}
	// Depth 9 at ~1/s: retry in ~10s, clamped to [1s, 120s].
	got := d.retryAfter(9, now)
	if got < 5*time.Second || got > 30*time.Second {
		t.Fatalf("retryAfter = %v, want ~10s", got)
	}
	// Stale observations age out of the window.
	now = now.Add(2 * drainWindow)
	if rate := d.ratePerSec(now); rate != 0 {
		t.Fatalf("stale rate = %v, want 0", rate)
	}
}

// TestManagerRateLimit submits through a manager with a 1-token bucket
// and requires the typed 429 shape.
func TestManagerRateLimit(t *testing.T) {
	var clock atomic.Int64 // seconds; the worker reads it too
	clock.Store(77000)
	m, err := NewManager(Config{
		Workers: 1, QueueDepth: 4,
		TenantLimits: TenantLimits{Default: TenantLimit{Rate: 1, Burst: 1}},
		Clock:        func() time.Time { return time.Unix(clock.Load(), 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	spec := func(b int64) Spec {
		return Spec{
			X:      [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}},
			Labels: []int{0, 0, 1, 1},
			Opt:    optB(b),
			Tenant: "acme",
		}
	}
	if _, err := m.Submit(spec(100)); err != nil {
		t.Fatalf("first submission: %v", err)
	}
	_, err = m.Submit(spec(200))
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submission err = %v, want ErrRateLimited", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "rate_limited" || oe.RetryAfter <= 0 {
		t.Fatalf("overload error = %+v", oe)
	}
	st := m.StatsSnapshot()
	if st.ShedRateLimited != 1 {
		t.Fatalf("shed_rate_limited = %d, want 1", st.ShedRateLimited)
	}
	found := false
	for _, ts := range st.Tenants {
		if ts.Tenant == "acme" {
			found = true
			if ts.Admitted != 1 || ts.Throttled != 1 {
				t.Fatalf("tenant stats %+v", ts)
			}
		}
	}
	if !found {
		t.Fatal("acme missing from tenant stats")
	}

	// The bucket refills with the clock: one second later the tenant is
	// admitted again, and identical submissions hit the cache untaxed.
	clock.Add(1)
	if _, err := m.Submit(spec(300)); err != nil {
		t.Fatalf("post-refill submission: %v", err)
	}
}

// TestQueueFullCarriesRetryAfter: a full queue sheds with the typed error
// and drain-rate-derived guidance.
func TestQueueFullCarriesRetryAfter(t *testing.T) {
	block := make(chan struct{})
	defer func() {
		select {
		case <-block:
		default:
			close(block)
		}
	}()
	m, err := NewManager(Config{
		Workers: 1, QueueDepth: 1,
		OnCheckpoint: func(id string, done, total int64) {
			<-block
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	spec := func(b int64) Spec {
		// C(10,5) = 252 labellings, folded to 126 complement pairs, in
		// windows of one kernel batch (64): one checkpoint, after the
		// first of two windows.
		return Spec{
			X:      [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {10, 9, 8, 7, 6, 5, 4, 3, 2, 1}},
			Labels: []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1},
			Opt:    optB(b),
			Every:  10,
		}
	}
	// First job occupies the worker (blocked in its checkpoint), second
	// fills the queue; the third must shed.
	if _, err := m.Submit(spec(1000)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := m.StatsSnapshot(); st.Running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(spec(2000)); err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(spec(3000))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue_full" || oe.RetryAfter <= 0 {
		t.Fatalf("overload error = %+v", oe)
	}
	if st := m.StatsSnapshot(); st.ShedQueueFull != 1 {
		t.Fatalf("shed_queue_full = %d, want 1", st.ShedQueueFull)
	}
	close(block)
}
