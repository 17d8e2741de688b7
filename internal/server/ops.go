package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"pimds/internal/buildinfo"
	"pimds/internal/obs"
)

// OpsHandler is the server's live introspection surface, mounted by
// cmd/pimserve on the -ops-addr listener:
//
//	/metrics.json     the JSON snapshot (same document as pimsim -metrics)
//	/metrics/history  windowed per-interval deltas (see Config.WindowTick)
//	/healthz          health verdict (see HealthStatus); 503 when not ready
//	/buildinfo        version, git revision and toolchain of this binary
//	/slow             slow-request log as JSON (see Config.SlowThreshold)
//	/trace            finished spans as Chrome trace-event JSON
//	/debug/pprof/     the standard Go profiler endpoints
//
// Every endpoint sets an explicit Content-Type and reads a consistent
// snapshot; scraping during a graceful drain is safe and race-free
// (/healthz flips to "draining" with 503 for the drain's duration).
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics.json", MetricsHandler(s.cfg.Reg))
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.win.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		h := s.Health()
		if !h.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := buildinfo.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			ThresholdNS int64        `json:"threshold_ns"`
			Spans       []SpanRecord `json:"spans"`
		}{s.tr.slowThreshold, s.SlowRequests()})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// MetricsHandler serves the registry's JSON snapshot — the same
// document pimsim -metrics writes — at any path. OpsHandler mounts it
// at /metrics.json; tests hit it in-process.
func MetricsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
