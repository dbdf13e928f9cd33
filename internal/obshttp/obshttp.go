// Package obshttp is the debug listener of the cmd binaries: the one
// mux they serve (Handler: pprof, /metrics, /flight — a binary supplies
// only what differs, which snapshots it exposes and which timeline it
// renders) and an http.Server with sane header timeouts (a stuck client
// must not wedge a cluster member) that the owner shuts down cleanly at
// finish or abort instead of leaking the accept goroutine.
package obshttp

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// Handler builds the debug listener's routes: Go's pprof handlers under
// /debug/pprof/, /metrics rendering what snapshots returns in Prometheus
// text exposition, and /flight rendering the timeline as text. When there
// is no timeline to render, timeline returns a status other than
// http.StatusOK and the reason, which /flight answers with instead.
func Handler(snapshots func() []telemetry.Snapshot, timeline func() (events []flight.Event, status int, reason string)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WriteProm(w, snapshots())
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		events, status, reason := timeline()
		if status != http.StatusOK {
			http.Error(w, reason, status)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		flight.WriteText(w, events)
	})
	return mux
}

// Server is a running debug listener.
type Server struct {
	srv  *http.Server
	addr string
	done chan struct{}
	err  error // why Serve stopped, if not by Close; read after done
}

// Start listens on addr and serves mux in the background. Unlike a
// bare http.ListenAndServe it binds synchronously — a bad address
// fails here, not in a goroutine's log output — and arms
// ReadHeaderTimeout so a half-open scrape connection cannot pin the
// process.
func Start(addr string, mux http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(ln, mux), nil
}

// serve runs the server on an already bound listener.
func serve(ln net.Listener, mux http.Handler) *Server {
	s := &Server{
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()
	return s
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.addr }

// Close shuts the listener down, giving in-flight scrapes a short
// grace period before hard-closing, and reports why the accept loop
// stopped if it had already died on its own (nil for a server that
// served until now). Safe on a nil receiver and more than once, so exit
// paths can call it unconditionally.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
	return s.err
}
