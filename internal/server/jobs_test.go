package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"ribbon/api"
	"ribbon/internal/obs"
)

func decodeJob(t *testing.T, body []byte) api.Job {
	t.Helper()
	var j api.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("decode job: %v: %s", err, body)
	}
	return j
}

func pollJob(t *testing.T, s *Server, id string, timeout time.Duration, stop func(api.Job) bool) api.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rr := doReq(t, s, http.MethodGet, "/v1/jobs/"+id, "")
		if rr.Code != http.StatusOK {
			t.Fatalf("get job: %d %s", rr.Code, rr.Body.String())
		}
		j := decodeJob(t, rr.Body.Bytes())
		if stop(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %+v", id, j)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobLifecycle drives the happy path: create returns 202 immediately,
// polling observes the queued/running -> done transition, and the final job
// carries the full OptimizeResponse.
func TestJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := newTestServer(t)
	body := `{"model":"MT-WND","families":["g4dn","t3"],"budget":25,"queries":4000}`
	rr := doReq(t, s, http.MethodPost, "/v1/jobs", body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("create status %d: %s", rr.Code, rr.Body.String())
	}
	j := decodeJob(t, rr.Body.Bytes())
	if j.ID == "" || j.Status.Terminal() {
		t.Fatalf("fresh job should be queued/running with an id: %+v", j)
	}
	if loc := rr.Header().Get("Location"); loc != "/v1/jobs/"+j.ID {
		t.Fatalf("Location = %q", loc)
	}
	if j.Request.Budget != 25 {
		t.Fatalf("request not echoed: %+v", j.Request)
	}

	final := pollJob(t, s, j.ID, 60*time.Second, func(j api.Job) bool { return j.Status.Terminal() })
	if final.Status != api.JobDone {
		t.Fatalf("status %q, want done (%+v)", final.Status, final.Error)
	}
	if final.Result == nil || !final.Result.Found || len(final.Result.BestConfig) == 0 {
		t.Fatalf("missing result: %+v", final.Result)
	}
	if final.Result.Saving <= 0 {
		t.Fatalf("done job should carry the baseline comparison: %+v", final.Result)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", final)
	}
	if final.Progress.Samples != final.Result.Samples {
		t.Fatalf("progress (%d) and result (%d) disagree", final.Progress.Samples, final.Result.Samples)
	}

	// The finished job is listed and refuses a second cancel.
	rr = doReq(t, s, http.MethodGet, "/v1/jobs", "")
	var list api.JobList
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil || len(list.Jobs) != 1 {
		t.Fatalf("job list: %v %s", err, rr.Body.String())
	}
	rr = doReq(t, s, http.MethodDelete, "/v1/jobs/"+j.ID, "")
	if rr.Code != http.StatusConflict {
		t.Fatalf("cancel of done job: %d, want 409", rr.Code)
	}
	if e := decodeErr(t, rr); e.Code != api.ErrJobFinished {
		t.Fatalf("code %q", e.Code)
	}
}

// TestJobCancelMidSearch is the acceptance-criteria test: DELETE on a
// running job stops the search mid-budget, and the cancelled job's partial
// result reports fewer samples than the requested budget.
func TestJobCancelMidSearch(t *testing.T) {
	s := newTestServer(t)
	// A huge budget over a slow evaluator: impossible to finish within
	// the test timeout, so a terminal state proves cancellation worked.
	const budget = 100000
	body := `{"model":"MT-WND","families":["g4dn","t3"],"budget":100000,"queries":60000}`
	rr := doReq(t, s, http.MethodPost, "/v1/jobs", body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("create status %d: %s", rr.Code, rr.Body.String())
	}
	j := decodeJob(t, rr.Body.Bytes())

	// Wait until the search has demonstrably started spending budget.
	pollJob(t, s, j.ID, 60*time.Second, func(j api.Job) bool {
		return j.Status == api.JobRunning && j.Progress.Samples >= 1
	})

	rr = doReq(t, s, http.MethodDelete, "/v1/jobs/"+j.ID, "")
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", rr.Code, rr.Body.String())
	}

	final := pollJob(t, s, j.ID, 30*time.Second, func(j api.Job) bool { return j.Status.Terminal() })
	if final.Status != api.JobCancelled {
		t.Fatalf("status %q, want cancelled", final.Status)
	}
	if final.Result == nil {
		t.Fatal("cancelled job should carry its partial result")
	}
	if final.Result.Samples <= 0 || final.Result.Samples >= budget {
		t.Fatalf("samples = %d, want mid-budget (0, %d)", final.Result.Samples, budget)
	}
}

// TestJobCancelWhileQueued cancels a job the single worker has not picked up
// yet: it must go terminal without ever running.
func TestJobCancelWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1, Logger: obs.NewPrintfLogger(t.Logf, obs.LevelInfo)})
	t.Cleanup(s.Close)

	blocker := `{"model":"MT-WND","families":["g4dn","t3"],"budget":100000,"queries":60000}`
	rr := doReq(t, s, http.MethodPost, "/v1/jobs", blocker)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("blocker status %d", rr.Code)
	}
	blockerID := decodeJob(t, rr.Body.Bytes()).ID

	rr = doReq(t, s, http.MethodPost, "/v1/jobs", `{"model":"MT-WND","budget":5}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("queued job status %d", rr.Code)
	}
	queued := decodeJob(t, rr.Body.Bytes())

	rr = doReq(t, s, http.MethodDelete, "/v1/jobs/"+queued.ID, "")
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", rr.Code, rr.Body.String())
	}
	j := decodeJob(t, rr.Body.Bytes())
	if j.Status != api.JobCancelled {
		t.Fatalf("status %q, want cancelled", j.Status)
	}
	if j.StartedAt != nil || j.Progress.Samples != 0 {
		t.Fatalf("queued job must not have run: %+v", j)
	}

	// Unblock the worker so Close doesn't wait for the full search.
	doReq(t, s, http.MethodDelete, "/v1/jobs/"+blockerID, "")
}

// TestJobQueueOverload fills the queue and expects 503/overloaded.
func TestJobQueueOverload(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Logger: obs.NewPrintfLogger(t.Logf, obs.LevelInfo)})
	t.Cleanup(s.Close)

	slow := `{"model":"MT-WND","families":["g4dn","t3"],"budget":100000,"queries":60000}`
	ids := []string{}
	overloaded := false
	for i := 0; i < 4; i++ {
		rr := doReq(t, s, http.MethodPost, "/v1/jobs", slow)
		switch rr.Code {
		case http.StatusAccepted:
			ids = append(ids, decodeJob(t, rr.Body.Bytes()).ID)
		case http.StatusServiceUnavailable:
			overloaded = true
			if e := decodeErr(t, rr); e.Code != api.ErrOverloaded {
				t.Fatalf("code %q", e.Code)
			}
			// Overload answers carry a retry hint for the client's backoff.
			if got := rr.Header().Get("Retry-After"); got != "1" {
				t.Fatalf("503 Retry-After = %q, want \"1\"", got)
			}
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
	if !overloaded {
		t.Fatal("queue never overloaded")
	}
	for _, id := range ids {
		doReq(t, s, http.MethodDelete, "/v1/jobs/"+id, "")
	}
}

// TestCancelledQueuedJobFreesSlot: cancelling queued jobs must release
// their QueueDepth slots immediately, not when a worker eventually drains
// them.
func TestCancelledQueuedJobFreesSlot(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Logger: obs.NewPrintfLogger(t.Logf, obs.LevelInfo)})
	t.Cleanup(s.Close)

	slow := `{"model":"MT-WND","families":["g4dn","t3"],"budget":100000,"queries":60000}`
	blocker := decodeJob(t, doReq(t, s, http.MethodPost, "/v1/jobs", slow).Body.Bytes())

	// Fill the single queue slot, then overload.
	var queuedID string
	deadline := time.Now().Add(10 * time.Second)
	for {
		rr := doReq(t, s, http.MethodPost, "/v1/jobs", slow)
		if rr.Code == http.StatusAccepted {
			j := decodeJob(t, rr.Body.Bytes())
			if j.Status == api.JobQueued {
				queuedID = j.ID
				break
			}
			// The worker grabbed it before the blocker; cancel and retry.
			doReq(t, s, http.MethodDelete, "/v1/jobs/"+j.ID, "")
		}
		if time.Now().After(deadline) {
			t.Fatal("never filled the queue")
		}
	}
	rr := doReq(t, s, http.MethodPost, "/v1/jobs", slow)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("full queue accepted a job: %d", rr.Code)
	}

	// Cancelling the queued job frees the slot for the next create.
	if rr := doReq(t, s, http.MethodDelete, "/v1/jobs/"+queuedID, ""); rr.Code != http.StatusOK {
		t.Fatalf("cancel queued: %d", rr.Code)
	}
	rr = doReq(t, s, http.MethodPost, "/v1/jobs", slow)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("slot not freed after cancel: %d %s", rr.Code, rr.Body.String())
	}
	doReq(t, s, http.MethodDelete, "/v1/jobs/"+decodeJob(t, rr.Body.Bytes()).ID, "")
	doReq(t, s, http.MethodDelete, "/v1/jobs/"+blocker.ID, "")
}

// TestTerminalJobEviction: only the newest RetainJobs terminal jobs stay
// queryable; older ones are evicted and answer 404.
func TestTerminalJobEviction(t *testing.T) {
	s := New(Config{Workers: 1, RetainJobs: 2, Logger: obs.NewPrintfLogger(t.Logf, obs.LevelInfo)})
	t.Cleanup(s.Close)

	fast := `{"model":"MT-WND","families":["g4dn","t3"],"budget":2,"queries":800}`
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		rr := doReq(t, s, http.MethodPost, "/v1/jobs", fast)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("create %d: %d", i, rr.Code)
		}
		id := decodeJob(t, rr.Body.Bytes()).ID
		ids = append(ids, id)
		pollJob(t, s, id, 60*time.Second, func(j api.Job) bool { return j.Status.Terminal() })
	}

	rr := doReq(t, s, http.MethodGet, "/v1/jobs", "")
	var list api.JobList
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) > 2 {
		t.Fatalf("retained %d terminal jobs, cap is 2", len(list.Jobs))
	}
	if rr := doReq(t, s, http.MethodGet, "/v1/jobs/"+ids[0], ""); rr.Code != http.StatusNotFound {
		t.Fatalf("oldest job should be evicted, got %d", rr.Code)
	}
	if rr := doReq(t, s, http.MethodGet, "/v1/jobs/"+ids[3], ""); rr.Code != http.StatusOK {
		t.Fatalf("newest job evicted: %d", rr.Code)
	}
}

// TestJobUnknownModelIsSynchronous pins that spec resolution failures are
// reported at POST time, not discovered by polling a failed job.
func TestJobUnknownModelIsSynchronous(t *testing.T) {
	s := newTestServer(t)
	rr := doReq(t, s, http.MethodPost, "/v1/jobs", `{"model":"nope"}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rr.Code)
	}
	if e := decodeErr(t, rr); e.Code != api.ErrUnknownModel {
		t.Fatalf("code %q", e.Code)
	}
	rr = doReq(t, s, http.MethodGet, "/v1/jobs", "")
	var list api.JobList
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil || len(list.Jobs) != 0 {
		t.Fatalf("rejected job must not be registered: %s", rr.Body.String())
	}
}
