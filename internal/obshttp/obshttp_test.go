package obshttp

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// TestHandlerRoutes: every route of the one debug mux answers on a real
// listener with the content type a scraper or `go tool pprof` expects,
// /metrics and /flight render what the binary's two closures supply, and
// a binary with no timeline to render answers /flight with its own status
// and reason.
func TestHandlerRoutes(t *testing.T) {
	reg := telemetry.NewRegistry(3, `policy="AT"`)
	reg.CounterFunc("dsm_scrapes_total", "a sample to expose", "", func() int64 { return 1 })
	status, reason := http.StatusOK, ""
	s, err := Start(":0", Handler(
		func() []telemetry.Snapshot { return []telemetry.Snapshot{reg.Snapshot()} },
		func() ([]flight.Event, int, string) {
			return []flight.Event{{Kind: flight.LockGrant, Node: 3, Sync: 7}}, status, reason
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, port, _ := net.SplitHostPort(s.Addr())
	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get("http://127.0.0.1:" + port + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}
	for _, tc := range []struct{ path, ctype, body string }{
		{"/debug/pprof/", "text/html", "goroutine"},
		{"/debug/pprof/cmdline", "text/plain", "obshttp"},
		{"/debug/pprof/symbol", "text/plain", "num_symbols"},
		{"/debug/pprof/profile?seconds=1", "application/octet-stream", ""},
		{"/debug/pprof/trace?seconds=1", "application/octet-stream", ""},
		{"/debug/pprof/heap", "application/octet-stream", ""}, // Index serves the named profiles
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "dsm_scrapes_total{"},
		{"/flight", "text/plain; charset=utf-8", "lock=7"},
	} {
		code, ctype, body := get(tc.path)
		if code != http.StatusOK || !strings.HasPrefix(ctype, tc.ctype) || !strings.Contains(body, tc.body) {
			t.Errorf("GET %s = %d, Content-Type %q, want 200 %q and a body containing %q; body:\n%.300s",
				tc.path, code, ctype, tc.ctype, tc.body, body)
		}
	}
	status, reason = http.StatusServiceUnavailable, "cluster not built yet"
	if code, _, body := get("/flight"); code != status || strings.TrimSpace(body) != reason {
		t.Errorf("GET /flight with no timeline = %d %q, want %d %q", code, body, status, reason)
	}
}

func hello() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/hello", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "hi") })
	return mux
}

func TestStartServesAndCloses(t *testing.T) {
	s, err := Start("127.0.0.1:0", hello())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/hello")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "hi" {
		t.Errorf("GET /hello = %d %q, want 200 \"hi\"", resp.StatusCode, body)
	}
	// Close is idempotent, and a server that served until it was closed
	// has no error to report.
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Errorf("Close #%d = %v, want nil", i+1, err)
		}
	}
	if _, err := http.Get("http://" + s.Addr() + "/hello"); err == nil {
		t.Error("listener still accepting after Close")
	}
}

func TestStartFailsSynchronouslyOnBadAddress(t *testing.T) {
	if s, err := Start("256.0.0.1:bad", hello()); err == nil {
		s.Close()
		t.Fatal("Start on a malformed address succeeded")
	}
	// An address already in use fails here too, not in a goroutine.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if s, err := Start(ln.Addr().String(), hello()); err == nil {
		s.Close()
		t.Fatal("Start on a bound address succeeded")
	}
}

func TestCloseOnNilServer(t *testing.T) {
	var s *Server
	if err := s.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

// TestCloseSurfacesServeFailure: an accept loop that died on its own —
// here because the listener was closed underneath it — used to fail
// silently; Close now reports why.
func TestCloseSurfacesServeFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serve(ln, hello())
	ln.Close()
	<-s.done // Serve has returned
	if err := s.Close(); err == nil {
		t.Error("Close = nil after the listener was closed underneath the server")
	}
}
