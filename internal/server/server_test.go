package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"decaynet/internal/core"
	"decaynet/internal/scenario"
	"decaynet/internal/sim"
	"decaynet/internal/sinr"
)

// stubAff is a tiny real affectance matrix (2 paired links over 4 nodes) so
// the affectance route has something to serve without a full Engine.
var stubAff = func() *sinr.Affectances {
	space, err := core.FromFunc(4, func(i, j int) float64 { return float64(2 + i + j) })
	if err != nil {
		panic(err)
	}
	sys, err := sinr.NewSystem(space, []sinr.Link{{Sender: 0, Receiver: 1}, {Sender: 2, Receiver: 3}})
	if err != nil {
		panic(err)
	}
	return sinr.ComputeAffectances(sys, sinr.Power{1, 1})
}()

// stubSession is a deterministic in-memory Session: Update bumps the
// version, reads return fixed values.
type stubSession struct {
	mu      sync.Mutex
	version uint64
	name    string
}

func (s *stubSession) N() int   { return 4 }
func (s *stubSession) Len() int { return 2 }
func (s *stubSession) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}
func (s *stubSession) Scenario() string { return s.name }
func (s *stubSession) Update(scenario.Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	return nil
}
func (s *stubSession) ZetaCtx(ctx context.Context) (float64, error) { return 2.5, ctx.Err() }
func (s *stubSession) PhiCtx(ctx context.Context) (float64, error)  { return 1.25, ctx.Err() }
func (s *stubSession) AffectancesCtx(ctx context.Context, _ sinr.Power) (*sinr.Affectances, error) {
	return stubAff, ctx.Err()
}
func (s *stubSession) CapacityCtx(ctx context.Context, _ sinr.Power, _ []int) ([]int, error) {
	return []int{0, 1}, ctx.Err()
}
func (s *stubSession) ScheduleCtx(ctx context.Context, _ sinr.Power, _ []int) ([][]int, error) {
	return [][]int{{0}, {1}}, ctx.Err()
}
func (s *stubSession) UniformPower(p float64) sinr.Power { return sinr.Power{p, p} }
func (s *stubSession) LinearPower(p float64) sinr.Power  { return sinr.Power{p, p} }
func (s *stubSession) MeanPower(p float64) sinr.Power    { return sinr.Power{p, p} }
func (s *stubSession) Simulate(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &sim.Result{
		Horizon: cfg.Spec.Horizon,
		Classes: []sim.ClassResult{{Name: "stub"}},
	}, nil
}
func (s *stubSession) MetricityApproximate() (bool, int) { return false, 0 }
func (s *stubSession) ZetaEstimate() (core.SampledEstimate, bool) {
	return core.SampledEstimate{}, false
}
func (s *stubSession) PhiEstimate() (core.SampledEstimate, bool) {
	return core.SampledEstimate{}, false
}

func stubBuilder(_ context.Context, req *CreateRequest) (Session, error) {
	return &stubSession{name: req.Scenario}, nil
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = stubBuilder
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// call drives one request through the handler stack and decodes the JSON
// response (nil out skips decoding).
func call(t *testing.T, s *Server, method, path, tenant, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func createSession(t *testing.T, s *Server, tenant string) string {
	t.Helper()
	var info SessionInfo
	rec := call(t, s, "POST", "/v1/sessions", tenant, `{"scenario":"stub"}`, &info)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	return info.ID
}

func TestLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	id := createSession(t, s, "")
	if id != "s-1" {
		t.Fatalf("first session id %q, want s-1", id)
	}

	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if rec := call(t, s, "GET", "/v1/sessions", "", "", &list); rec.Code != 200 {
		t.Fatalf("list: %d", rec.Code)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != id || list.Sessions[0].Tenant != DefaultTenant {
		t.Fatalf("list: %+v", list.Sessions)
	}

	var info SessionInfo
	if rec := call(t, s, "GET", "/v1/sessions/"+id, "", "", &info); rec.Code != 200 {
		t.Fatalf("info: %d", rec.Code)
	}
	if info.N != 4 || info.Links != 2 || info.Version != 0 || info.Scenario != "stub" {
		t.Fatalf("info: %+v", info)
	}

	if rec := call(t, s, "DELETE", "/v1/sessions/"+id, "", "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := call(t, s, "GET", "/v1/sessions/"+id, "", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("read after delete: %d", rec.Code)
	}
	if s.Live() != 0 {
		t.Fatalf("%d sessions live after delete", s.Live())
	}
}

func TestTenantIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	id := createSession(t, s, "alice")
	// Another tenant's session must be indistinguishable from a missing one.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sessions/" + id},
		{"DELETE", "/v1/sessions/" + id},
		{"POST", "/v1/sessions/" + id + "/mutations"},
		{"GET", "/v1/sessions/" + id + "/zeta"},
	} {
		body := ""
		if probe.method == "POST" {
			body = `{"set_decays":[{"i":0,"j":1,"f":2}]}`
		}
		if rec := call(t, s, probe.method, probe.path, "bob", body, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s as bob: %d, want 404", probe.method, probe.path, rec.Code)
		}
	}
	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	call(t, s, "GET", "/v1/sessions", "bob", "", &list)
	if len(list.Sessions) != 0 {
		t.Fatalf("bob sees alice's sessions: %+v", list.Sessions)
	}
}

func TestVersionFence(t *testing.T) {
	s := newTestServer(t, Config{})
	id := createSession(t, s, "")
	mutate := func(body string) (*httptest.ResponseRecorder, map[string]any) {
		out := map[string]any{}
		rec := call(t, s, "POST", "/v1/sessions/"+id+"/mutations", "", body, &out)
		return rec, out
	}

	rec, out := mutate(`{"base_version":0,"set_decays":[{"i":0,"j":1,"f":2}]}`)
	if rec.Code != 200 || out["version"] != float64(1) {
		t.Fatalf("fenced batch at the right version: %d %v", rec.Code, out)
	}
	// Replaying the same fence must conflict and report where the session is.
	rec, out = mutate(`{"base_version":0,"set_decays":[{"i":0,"j":1,"f":3}]}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale fence: %d, want 409", rec.Code)
	}
	if out["version"] != float64(1) {
		t.Fatalf("conflict response version %v, want 1", out["version"])
	}
	// An unfenced batch applies regardless.
	rec, out = mutate(`{"set_decays":[{"i":0,"j":1,"f":4}]}`)
	if rec.Code != 200 || out["version"] != float64(2) {
		t.Fatalf("unfenced batch: %d %v", rec.Code, out)
	}
}

func TestQuotaEvictLRU(t *testing.T) {
	evictions := 0
	s := newTestServer(t, Config{
		TenantQuota: 2,
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "evict:") {
				evictions++
			}
		},
	})
	id1 := createSession(t, s, "")
	id2 := createSession(t, s, "")
	// Touch id1 so id2 is deterministically the LRU victim.
	call(t, s, "GET", "/v1/sessions/"+id1, "", "", nil)
	id3 := createSession(t, s, "")

	if rec := call(t, s, "GET", "/v1/sessions/"+id2, "", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("LRU session %s still live: %d", id2, rec.Code)
	}
	for _, id := range []string{id1, id3} {
		if rec := call(t, s, "GET", "/v1/sessions/"+id, "", "", nil); rec.Code != 200 {
			t.Fatalf("session %s evicted, want %s gone: %d", id, id2, rec.Code)
		}
	}
	if evictions != 1 || s.Live() != 2 {
		t.Fatalf("evictions=%d live=%d, want 1 and 2", evictions, s.Live())
	}
	// Quotas are per tenant: another tenant is unaffected.
	createSession(t, s, "other")
	if s.Live() != 3 {
		t.Fatalf("cross-tenant create evicted: live=%d", s.Live())
	}
}

func TestQuotaReject(t *testing.T) {
	s := newTestServer(t, Config{TenantQuota: 1, QuotaPolicy: Reject})
	id := createSession(t, s, "")
	rec := call(t, s, "POST", "/v1/sessions", "", `{"scenario":"stub"}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota create: %d, want 429", rec.Code)
	}
	// The existing session must be untouched.
	if rec := call(t, s, "GET", "/v1/sessions/"+id, "", "", nil); rec.Code != 200 {
		t.Fatalf("reject policy evicted the live session: %d", rec.Code)
	}
}

func TestUnknownQuotaPolicy(t *testing.T) {
	if _, err := New(Config{Build: stubBuilder, QuotaPolicy: "random"}); err == nil {
		t.Fatal("unknown quota policy accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing Build accepted")
	}
}

func TestAdmissionControl(t *testing.T) {
	// A near-zero rate with burst 2 admits exactly two requests: the refill
	// over the test's lifetime is ~1e-9 tokens.
	s := newTestServer(t, Config{RatePerSec: 1e-9, Burst: 2})
	for i := 0; i < 2; i++ {
		if rec := call(t, s, "GET", "/v1/sessions", "", "", nil); rec.Code != 200 {
			t.Fatalf("burst request %d: %d", i, rec.Code)
		}
	}
	rec := call(t, s, "GET", "/v1/sessions", "", "", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted bucket: %d, want 429", rec.Code)
	}
	// Probes are exempt from admission control.
	if rec := call(t, s, "GET", "/healthz", "", "", nil); rec.Code != 200 {
		t.Fatalf("healthz behind admission control: %d", rec.Code)
	}
	body := call(t, s, "GET", "/metrics", "", "", nil).Body.String()
	if !strings.Contains(body, "decaynetd_admission_rejected_total 1") {
		t.Fatalf("admission rejection not counted:\n%s", body)
	}
}

func TestReadsAndPowerKnobs(t *testing.T) {
	s := newTestServer(t, Config{})
	id := createSession(t, s, "")

	out := map[string]any{}
	if rec := call(t, s, "GET", "/v1/sessions/"+id+"/zeta", "", "", &out); rec.Code != 200 {
		t.Fatalf("zeta: %d", rec.Code)
	}
	if out["zeta"] != 2.5 || out["approximate"] != false {
		t.Fatalf("zeta response: %v", out)
	}
	out = map[string]any{}
	call(t, s, "GET", "/v1/sessions/"+id+"/phi", "", "", &out)
	if out["phi"] != 1.25 {
		t.Fatalf("phi response: %v", out)
	}

	out = map[string]any{}
	if rec := call(t, s, "GET", "/v1/sessions/"+id+"/affectance?link=1&power=mean&scale=2", "", "", &out); rec.Code != 200 {
		t.Fatalf("affectance: %d", rec.Code)
	}
	row := out["row"].([]any)
	if len(row) != stubAff.N() || row[1] != stubAff.Raw(1, 1) {
		t.Fatalf("affectance row: %v", row)
	}

	out = map[string]any{}
	call(t, s, "GET", "/v1/sessions/"+id+"/capacity", "", "", &out)
	if out["size"] != float64(2) {
		t.Fatalf("capacity: %v", out)
	}
	out = map[string]any{}
	call(t, s, "GET", "/v1/sessions/"+id+"/schedule", "", "", &out)
	if len(out["slots"].([]any)) != 2 {
		t.Fatalf("schedule: %v", out)
	}

	// Bad knobs are 400s, not panics.
	for _, q := range []string{
		"/affectance",         // missing link
		"/affectance?link=99", // out of range
		"/affectance?link=0&scale=0",
		"/affectance?link=0&power=cubic",
		"/capacity?scale=-1",
		"/schedule?power=wat",
	} {
		if rec := call(t, s, "GET", "/v1/sessions/"+id+q, "", "", nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", q, rec.Code)
		}
	}
}

func TestProbesAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := call(t, s, "GET", "/healthz", "", "", nil); rec.Code != 200 {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if rec := call(t, s, "GET", "/readyz", "", "", nil); rec.Code != 200 {
		t.Fatalf("readyz: %d", rec.Code)
	}
	createSession(t, s, "")
	call(t, s, "GET", "/v1/sessions/nope", "", "", nil)

	rec := call(t, s, "GET", "/metrics", "", "", nil)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`decaynetd_requests_total{route="create_session",code="201"} 1`,
		`decaynetd_requests_total{route="session_info",code="404"} 1`,
		`decaynetd_request_duration_seconds_bucket{route="create_session",le="+Inf"} 1`,
		`decaynetd_request_duration_seconds_count{route="create_session"} 1`,
		"decaynetd_sessions_live 1",
		"decaynetd_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestUnknownRoute(t *testing.T) {
	s := newTestServer(t, Config{})
	out := map[string]string{}
	rec := call(t, s, "GET", "/v2/everything", "", "", &out)
	if rec.Code != http.StatusNotFound || out["error"] == "" {
		t.Fatalf("unknown route: %d %v", rec.Code, out)
	}
}

// TestGracefulDrain proves the SIGTERM semantics end to end: a request in
// flight when drain begins runs to completion, every request arriving after
// is shed with 503 (while probes keep answering), and Drain returns only
// after the in-flight request finished — with a checkpoint for every live
// session at its final version.
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s := newTestServer(t, Config{
		Build: func(ctx context.Context, req *CreateRequest) (Session, error) {
			if req.Scenario == "blocking" {
				close(entered)
				<-release
			}
			return &stubSession{name: req.Scenario}, nil
		},
	})
	// One finished session whose version the checkpoint must carry.
	id := createSession(t, s, "")
	call(t, s, "POST", "/v1/sessions/"+id+"/mutations", "", `{"set_decays":[{"i":0,"j":1,"f":2}]}`, nil)

	// Park a create in flight inside the builder.
	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"scenario":"blocking"}`)))
		inflight <- rec
	}()
	<-entered

	// Begin the drain while the create is still blocked.
	drained := make(chan []Checkpoint, 1)
	go func() {
		cps, err := s.Drain(context.Background())
		if err != nil {
			t.Error(err)
		}
		drained <- cps
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New API requests are shed; probes and metrics still answer.
	if rec := call(t, s, "GET", "/v1/sessions", "", "", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503", rec.Code)
	}
	if rec := call(t, s, "GET", "/healthz", "", "", nil); rec.Code != 200 {
		t.Fatalf("healthz during drain: %d", rec.Code)
	}
	if rec := call(t, s, "GET", "/readyz", "", "", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", rec.Code)
	}

	// Drain must still be waiting on the parked request.
	select {
	case <-drained:
		t.Fatal("Drain returned with a request in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	rec := <-inflight
	if rec.Code != http.StatusCreated {
		t.Fatalf("in-flight create during drain: %d, want 201", rec.Code)
	}
	cps := <-drained
	if len(cps) != 2 {
		t.Fatalf("%d checkpoints, want 2: %+v", len(cps), cps)
	}
	if cps[0].ID != "s-1" || cps[0].Version != 1 {
		t.Fatalf("checkpoint for s-1: %+v", cps[0])
	}
	if cps[1].Scenario != "blocking" {
		t.Fatalf("checkpoint for the in-flight session: %+v", cps[1])
	}

	body := call(t, s, "GET", "/metrics", "", "", nil).Body.String()
	if !strings.Contains(body, "decaynetd_draining 1") {
		t.Fatal("draining gauge not set")
	}
	if !strings.Contains(body, "decaynetd_drain_rejected_total 1") {
		t.Fatalf("drain rejection not counted:\n%s", body)
	}

	// A second Drain is idempotent.
	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainTimeout: a drain whose context expires while a request is stuck
// returns the context error instead of hanging.
func TestDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{})
	s := newTestServer(t, Config{
		Build: func(context.Context, *CreateRequest) (Session, error) {
			close(entered)
			<-release
			return &stubSession{}, nil
		},
	})
	go func() {
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"scenario":"stub"}`)))
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain error %v, want deadline exceeded", err)
	}
}

// TestConcurrentTenants exercises the whole surface from many goroutines —
// the -race run is the assertion.
func TestConcurrentTenants(t *testing.T) {
	s := newTestServer(t, Config{TenantQuota: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; i < 20; i++ {
				var info SessionInfo
				rec := call(t, s, "POST", "/v1/sessions", tenant, `{"scenario":"stub"}`, &info)
				if rec.Code != http.StatusCreated {
					t.Errorf("create: %d", rec.Code)
					return
				}
				call(t, s, "POST", "/v1/sessions/"+info.ID+"/mutations", tenant, `{"set_decays":[{"i":0,"j":1,"f":2}]}`, nil)
				call(t, s, "GET", "/v1/sessions/"+info.ID+"/zeta", tenant, "", nil)
				call(t, s, "GET", "/v1/sessions", tenant, "", nil)
				if i%4 == 0 {
					call(t, s, "DELETE", "/v1/sessions/"+info.ID, tenant, "", nil)
				}
			}
		}(g)
	}
	wg.Wait()
	// Quotas must have held under concurrency: at most 4 live per tenant.
	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	for g := 0; g < 3; g++ {
		list.Sessions = nil
		call(t, s, "GET", "/v1/sessions", fmt.Sprintf("t%d", g), "", &list)
		if len(list.Sessions) > 4 {
			t.Fatalf("tenant t%d holds %d sessions over quota 4", g, len(list.Sessions))
		}
	}
}

// staleSession answers every power-taking read as a session whose link set
// changed after the request built its power vector.
type staleSession struct{ stubSession }

var errStalePower = fmt.Errorf("%w: 2 entries for 3 links", sinr.ErrPowerMismatch)

func (s *staleSession) AffectancesCtx(context.Context, sinr.Power) (*sinr.Affectances, error) {
	return nil, errStalePower
}
func (s *staleSession) CapacityCtx(context.Context, sinr.Power, []int) ([]int, error) {
	return nil, errStalePower
}
func (s *staleSession) ScheduleCtx(context.Context, sinr.Power, []int) ([][]int, error) {
	return nil, errStalePower
}

func TestStalePowerIsConflict(t *testing.T) {
	s := newTestServer(t, Config{Build: func(context.Context, *CreateRequest) (Session, error) {
		return &staleSession{}, nil
	}})
	id := createSession(t, s, "")
	for _, q := range []string{"/affectance?link=0", "/capacity", "/schedule"} {
		if rec := call(t, s, "GET", "/v1/sessions/"+id+q, "", "", nil); rec.Code != http.StatusConflict {
			t.Fatalf("%s: %d %s, want 409", q, rec.Code, rec.Body.String())
		}
	}
}
