package simsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ossd/internal/core"
	"ossd/internal/experiments"
	"ossd/internal/runner"
	"ossd/internal/workload"
)

// writeJSON serves v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError serves an error as {"error": ...}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// profileInfo is one GET /profiles row.
type profileInfo struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Description string `json:"description"`
}

// experimentInfo is one GET /experiments row.
type experimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// experimentRequest is the optional POST /experiments/{name} body. Seed
// is a pointer so an explicit {"seed": 0} is distinguishable from an
// omitted field (which defaults to 1).
type experimentRequest struct {
	Seed    *int64 `json:"seed,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// expIdentity is the experiment result cache's identity bytes (hash it
// with identityKey for the cache key). Workers is deliberately
// excluded: experiment results are byte-identical for a fixed seed
// regardless of worker count (the determinism tests pin this), so it
// is not part of the result's identity.
func expIdentity(name string, seed int64) []byte {
	return fmt.Appendf(nil, "experiment|%s|%d", name, seed)
}

// MaxBodyBytes caps the request bodies the API decodes: job and campaign
// specs, experiment requests and cache identities are small JSON
// documents, so a larger body is refused (413) instead of buffered.
const MaxBodyBytes = 1 << 20

// BodyStatus maps an error from decoding a capped request body to its
// HTTP status: 413 when the body outgrew MaxBodyBytes, 400 otherwise.
func BodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Handler returns the service's HTTP API:
//
//	POST   /jobs                submit a JobSpec, get {id, status, cached}
//	GET    /jobs/{id}           job state (+ ?wait=1 to block until terminal)
//	DELETE /jobs/{id}           cancel a queued or running job
//	GET    /jobs/{id}/stream    NDJSON telemetry samples until the job ends
//	GET    /profiles            registered device profiles
//	GET    /workloads           registered workload generators
//	GET    /experiments         the paper's experiment catalog
//	POST   /experiments/{name}  run one experiment (body: {seed, workers})
//	GET    /cache/{key}         internal fleet fetch (+ ?wait=1 coalesce/recompute)
//	PUT    /cache/{key}         internal fleet push from a non-owner
//	GET    /healthz             liveness
//	GET    /statsz              job/cache/tier counters
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, BodyStatus(err), fmt.Errorf("simsvc: bad job spec: %w", err))
			return
		}
		job, err := m.Submit(spec)
		if err != nil {
			status := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrShed), errors.Is(err, ErrTenantQuota):
				// Shed mode and tenant quotas: an explicit "go away"
				// beats queueing the caller behind the overload.
				status = http.StatusTooManyRequests
			case errors.Is(err, runner.ErrPoolSaturated), errors.Is(err, runner.ErrPoolClosed):
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job.View())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if r.URL.Query().Get("wait") != "" {
			view, err := m.Wait(r.Context(), id)
			if err != nil {
				writeError(w, http.StatusNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, view)
			return
		}
		job, ok := m.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("simsvc: no job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, job.View())
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		cancelled, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"cancelled": cancelled})
	})

	mux.HandleFunc("GET /jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		err := m.StreamSamples(r.Context(), r.PathValue("id"), func(s Sample) error {
			if err := enc.Encode(s); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
		if err != nil && r.Context().Err() == nil && !errors.Is(err, ErrJobEvicted) {
			// Nothing streamed yet iff the job ID was unknown; headers may
			// already be out otherwise, so only the lookup error is usable.
			// An eviction mid-tail just ends the NDJSON stream: samples may
			// already be on the wire, and the terminated connection is the
			// signal.
			writeError(w, http.StatusNotFound, err)
		}
	})

	mux.HandleFunc("GET /profiles", func(w http.ResponseWriter, r *http.Request) {
		var infos []profileInfo
		for _, name := range core.ProfileNames() {
			p, err := core.ProfileByName(name)
			if err != nil {
				continue // racing an unregister is impossible; be safe anyway
			}
			infos = append(infos, profileInfo{Name: p.Name, Kind: p.Kind.String(), Description: p.Description})
		}
		writeJSON(w, http.StatusOK, infos)
	})

	mux.HandleFunc("GET /workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, workload.Generators())
	})

	mux.HandleFunc("GET /experiments", func(w http.ResponseWriter, r *http.Request) {
		var infos []experimentInfo
		for _, e := range experiments.Catalog() {
			infos = append(infos, experimentInfo{Name: e.ID, Description: e.Description})
		}
		writeJSON(w, http.StatusOK, infos)
	})

	mux.HandleFunc("POST /experiments/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		entry, ok := experiments.CatalogEntryByID(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("simsvc: unknown experiment %q", name))
			return
		}
		var req experimentRequest
		if r.ContentLength != 0 {
			if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(&req); err != nil {
				writeError(w, BodyStatus(err), fmt.Errorf("simsvc: bad experiment request: %w", err))
				return
			}
		}
		seed := int64(1)
		if req.Seed != nil {
			seed = *req.Seed
		}

		// Experiment runs are deterministic from (name, seed), so they
		// share the content-addressed cache with jobs.
		identity := expIdentity(entry.ID, seed)
		key := identityKey(identity)
		if payload, ok := m.cache.get(key, identity); ok {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(payload)
			return
		}

		// Experiments fan out internally and run for seconds; bound
		// their concurrency and shed the overflow instead of stacking
		// unmanaged runs on handler goroutines.
		select {
		case m.expSem <- struct{}{}:
			defer func() { <-m.expSem }()
		default:
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("simsvc: an experiment is already running; retry later"))
			return
		}

		res := ExperimentResult{Name: entry.ID, Description: entry.Description, Seed: seed}
		value, err := entry.Run(seed, req.Workers)
		if err != nil {
			res.Error = err.Error()
			writeJSON(w, http.StatusInternalServerError, res)
			return
		}
		res.Report = value.String()
		payload, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		payload = append(payload, '\n')
		m.cache.put(key, identity, payload)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(payload)
	})

	// GET /cache/{key} is the fleet's internal fetch path: a peer that
	// missed locally on a key this node owns asks here. The body is the
	// entry's identity bytes (the canonical spec JSON), verified against
	// both the path key and the stored entry — a colliding key answers
	// 409, never another spec's payload. With ?wait=1 a miss does not
	// 404-loop: the request coalesces onto this node's in-flight
	// computation of the same identity, or — if the entry was evicted or
	// never computed — recomputes it locally, so the requester always
	// gets the byte-identical payload one simulation produces.
	mux.HandleFunc("GET /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, err := strconv.ParseUint(r.PathValue("key"), 16, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("simsvc: bad cache key: %w", err))
			return
		}
		identity, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil || len(identity) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("simsvc: cache fetch needs identity bytes in the body"))
			return
		}
		if identityKey(identity) != key {
			writeError(w, http.StatusConflict, errors.New("simsvc: identity does not hash to the requested key"))
			return
		}
		if payload, ok := m.cache.get(key, identity); ok {
			if m.tier != nil {
				m.tier.peerServes.Add(1)
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(payload)
			return
		}
		if r.URL.Query().Get("wait") == "" {
			writeError(w, http.StatusNotFound, errors.New("simsvc: no cache entry"))
			return
		}
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(identity))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			// Not a job-spec identity (e.g. an experiment entry):
			// nothing to recompute from.
			writeError(w, http.StatusNotFound, errors.New("simsvc: no cache entry and identity is not a job spec"))
			return
		}
		// SubmitLocal rides the normal single-flight path: an in-flight
		// identical spec absorbs this request as a waiter; otherwise the
		// owner recomputes. Shed/saturation answer 429/503 and the
		// requester computes locally.
		job, err := m.SubmitLocal(spec)
		if err != nil {
			status := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrShed), errors.Is(err, ErrTenantQuota):
				status = http.StatusTooManyRequests
			case errors.Is(err, runner.ErrPoolSaturated), errors.Is(err, runner.ErrPoolClosed):
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err)
			return
		}
		view, err := job.Wait(r.Context())
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		if view.Status != StatusDone {
			// The recompute failed (cancelled at shutdown, bad device
			// state): an alive 404 lets the requester run — and observe
			// the failure — itself, without tripping its breaker.
			writeError(w, http.StatusNotFound, fmt.Errorf("simsvc: recompute failed: %s", view.Error))
			return
		}
		if m.tier != nil {
			m.tier.peerServes.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(view.Result))
	})

	// PUT /cache/{key} accepts an entry from a non-owner that had to
	// compute locally (this node was shedding or briefly unreachable),
	// so the tier converges back to owner-holds-the-entry.
	mux.HandleFunc("PUT /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, err := strconv.ParseUint(r.PathValue("key"), 16, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("simsvc: bad cache key: %w", err))
			return
		}
		var env pushEnvelope
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&env); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("simsvc: bad cache push: %w", err))
			return
		}
		if len(env.Identity) == 0 || len(env.Payload) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("simsvc: cache push needs identity and payload"))
			return
		}
		if identityKey(env.Identity) != key {
			writeError(w, http.StatusConflict, errors.New("simsvc: identity does not hash to the pushed key"))
			return
		}
		m.cache.put(key, env.Identity, env.Payload)
		if m.tier != nil {
			m.tier.peerStores.Add(1)
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})

	return mux
}
