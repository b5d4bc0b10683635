package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ossd/internal/simsvc"
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

// Register mounts the campaign API on mux, alongside the job service's
// routes:
//
//	POST   /campaigns                submit a Spec, get its progress view
//	GET    /campaigns                progress of every retained campaign
//	GET    /campaigns/{id}           progress (+ ?wait=1 to block until terminal)
//	DELETE /campaigns/{id}           cancel the remaining cells
//	GET    /campaigns/{id}/stream    NDJSON cell results in deterministic cell order
//	GET    /campaigns/{id}/table     text comparison table (?rows=&cols=&metric=)
func (m *Manager) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, simsvc.MaxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, simsvc.BodyStatus(err), fmt.Errorf("campaign: bad spec: %w", err))
			return
		}
		c, err := m.Submit(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, m.Progress(c))
	})

	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		ids := append([]string(nil), m.order...)
		m.mu.Unlock()
		views := make([]Progress, 0, len(ids))
		for _, id := range ids {
			if c, ok := m.Campaign(id); ok {
				views = append(views, m.Progress(c))
			}
		}
		writeJSON(w, http.StatusOK, views)
	})

	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if r.URL.Query().Get("wait") != "" {
			p, err := m.Wait(r.Context(), id)
			if err != nil {
				writeError(w, http.StatusNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, p)
			return
		}
		c, ok := m.Campaign(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no campaign %q", id))
			return
		}
		writeJSON(w, http.StatusOK, m.Progress(c))
	})

	mux.HandleFunc("DELETE /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		cancelled, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"cancelled": cancelled})
	})

	mux.HandleFunc("GET /campaigns/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		err := m.StreamResults(r.Context(), r.PathValue("id"), func(res CellResult) error {
			if err := enc.Encode(res); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
		if err != nil && r.Context().Err() == nil && !errors.Is(err, ErrCampaignEvicted) {
			// Only the ID-lookup error arrives before any bytes are out;
			// an eviction mid-tail just ends the NDJSON stream.
			writeError(w, http.StatusNotFound, err)
		}
	})

	mux.HandleFunc("GET /campaigns/{id}/table", func(w http.ResponseWriter, r *http.Request) {
		c, ok := m.Campaign(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no campaign %q", r.PathValue("id")))
			return
		}
		q := r.URL.Query()
		rows, cols, metric, err := ResolveTableAxes(m.Progress(c).Axes, q.Get("rows"), q.Get("cols"), q.Get("metric"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		title := fmt.Sprintf("Campaign %s: %s by %s x %s", c.ID, metric, rows, cols)
		g, err := Table(title, c.Results(), rows, cols, metric)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(g.String()))
	})
}

// ResolveTableAxes applies the table endpoint's defaulting, shared with
// cmd/repro: empty rows/cols fall back to the campaign's first two
// axes, an empty metric to write_mbps.
func ResolveTableAxes(axes []string, rows, cols, metric string) (string, string, string, error) {
	if rows == "" || cols == "" {
		if len(axes) < 2 {
			return "", "", "", fmt.Errorf("campaign: table needs two axes (campaign has %d); pass rows= and cols=", len(axes))
		}
		if rows == "" {
			rows = axes[0]
		}
		if cols == "" {
			for _, ax := range axes {
				if ax != rows {
					cols = ax
					break
				}
			}
		}
	}
	if metric == "" {
		metric = "write_mbps"
	}
	return rows, cols, metric, nil
}
