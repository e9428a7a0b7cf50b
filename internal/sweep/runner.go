package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"breathe/internal/api"
	"breathe/internal/service"
)

// Runner executes one run of a sweep. Run blocks until the request is
// terminal and returns the parsed response together with its canonical
// serialization (the bytes a breathed /result endpoint would serve —
// byte-identical between the computing execution and every cache hit).
// cached reports that the result was served from a content-addressed
// cache without executing a kernel.
type Runner interface {
	Run(req api.RunRequest) (resp *api.RunResponse, raw []byte, cached bool, err error)
}

// LocalRunner executes runs on an in-process service.Service, inheriting
// its engine reuse (one engine per worker, re-armed via Engine.Reset),
// single-flight sharing and content-addressed result cache.
type LocalRunner struct {
	svc *service.Service
}

// NewLocalRunner wraps svc. The caller keeps ownership (and Close).
func NewLocalRunner(svc *service.Service) *LocalRunner {
	return &LocalRunner{svc: svc}
}

// Run implements Runner. A full admission queue is back-pressure, not
// failure: the runner retries with capped exponential backoff until the
// queue drains. Every other submission error is terminal — in particular
// ErrClosed: a closed or draining service will never admit the run, so
// the error surfaces instead of the runner spinning forever.
func (r *LocalRunner) Run(req api.RunRequest) (*api.RunResponse, []byte, bool, error) {
	var job *service.Job
	backoff := time.Millisecond
	const maxBackoff = 250 * time.Millisecond
	for {
		var err error
		job, err = r.svc.Submit(req)
		if err == nil {
			break
		}
		if !errors.Is(err, service.ErrQueueFull) {
			return nil, nil, false, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	<-job.Done()
	resp, raw, ok := job.Response()
	if !ok {
		err := job.Err()
		if err == nil {
			err = fmt.Errorf("sweep: job %s ended in state %s without a response", job.ID, job.State())
		}
		return nil, nil, false, err
	}
	return resp, raw, job.Cached, nil
}

// RemoteRunner executes runs against one or more live breathed instances
// over HTTP, spreading requests round-robin. Each run is a submit
// (POST /v1/runs) followed by a blocking result fetch
// (GET /v1/runs/{id}/result?wait=1), so the bytes returned are exactly
// the canonical response bytes the daemon stores — bit-identical to a
// local execution of the same request.
type RemoteRunner struct {
	endpoints []string
	client    *http.Client
	next      atomic.Uint64
}

// NewRemoteRunner builds a runner over the given base URLs (e.g.
// "http://host:8344"). client may be nil for a default with a generous
// timeout (runs can be long).
func NewRemoteRunner(endpoints []string, client *http.Client) (*RemoteRunner, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("sweep: remote runner needs at least one endpoint")
	}
	trimmed := make([]string, len(endpoints))
	for i, e := range endpoints {
		e = strings.TrimRight(strings.TrimSpace(e), "/")
		if e == "" {
			return nil, fmt.Errorf("sweep: empty remote endpoint")
		}
		trimmed[i] = e
	}
	if client == nil {
		client = &http.Client{Timeout: 15 * time.Minute}
	}
	return &RemoteRunner{endpoints: trimmed, client: client}, nil
}

// Run implements Runner. 429 (queue full) is back-pressure: the runner
// honours Retry-After and resubmits, rotating to the next endpoint.
func (r *RemoteRunner) Run(req api.RunRequest) (*api.RunResponse, []byte, bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, false, err
	}
	var (
		base   string
		id     string
		cached bool
	)
	for {
		base = r.endpoints[r.next.Add(1)%uint64(len(r.endpoints))]
		httpResp, err := r.client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, false, err
		}
		raw, err := io.ReadAll(httpResp.Body)
		httpResp.Body.Close()
		if err != nil {
			return nil, nil, false, err
		}
		if httpResp.StatusCode == http.StatusTooManyRequests {
			delay := time.Second
			if ra, err := strconv.Atoi(httpResp.Header.Get("Retry-After")); err == nil && ra > 0 {
				delay = time.Duration(ra) * time.Second
			}
			time.Sleep(delay)
			continue
		}
		if httpResp.StatusCode != http.StatusOK && httpResp.StatusCode != http.StatusAccepted {
			return nil, nil, false, fmt.Errorf("sweep: %s/v1/runs: %s: %s", base, httpResp.Status, bytes.TrimSpace(raw))
		}
		var env struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &env); err != nil || env.ID == "" {
			return nil, nil, false, fmt.Errorf("sweep: %s/v1/runs: bad envelope %q", base, raw)
		}
		id = env.ID
		cached = httpResp.Header.Get("X-Breathe-Cache") == "hit"
		break
	}

	// The submitting endpoint owns the job ID; fetch the result there.
	httpResp, err := r.client.Get(base + "/v1/runs/" + id + "/result?wait=1")
	if err != nil {
		return nil, nil, false, err
	}
	raw, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		return nil, nil, false, err
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, nil, false, fmt.Errorf("sweep: %s result %s: %s: %s", base, id, httpResp.Status, bytes.TrimSpace(raw))
	}
	var resp api.RunResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, nil, false, fmt.Errorf("sweep: %s result %s: %w", base, id, err)
	}
	return &resp, raw, cached, nil
}
