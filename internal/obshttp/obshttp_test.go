package obshttp

import (
	"io"
	"net"
	"net/http"
	"testing"
)

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
