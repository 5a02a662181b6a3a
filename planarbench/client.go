package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/server"
	"github.com/planarcert/planarcert/internal/wire"
)

// daemon is an in-process internal/server behind a loopback HTTP
// listener, with the client the benchmark talks to it through.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served sync.WaitGroup
}

// startDaemon serves srv on a fresh loopback port. srv must already have
// recovered.
func startDaemon(srv *server.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   120 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		},
	}
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// stop closes the listener and every connection, waits for the serve
// goroutine, then drains the server's sessions.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		_ = d.hs.Close()
	}
	d.served.Wait()
	d.srv.Close()
}

// statusError is a non-2xx reply.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// do sends one request and returns the body of a 2xx reply; any other
// status is a *statusError.
func (d *daemon) do(method, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(raw))}
	}
	return raw, nil
}

func (d *daemon) doJSON(method, path string, in, out interface{}) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	raw, err := d.do(method, path, "application/json", body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// createSession creates a planarity session on the mirror's network and
// requires the initial proof to be accepted.
func (d *daemon) createSession(name string, m *mirror) error {
	var st server.SessionStatus
	req := server.CreateSessionRequest{
		Name:   name,
		Scheme: planarcert.SchemePlanarity,
		Graph:  server.GraphSpec{Edges: m.sortedEdges()},
	}
	if err := d.doJSON(http.MethodPost, "/v1/sessions", req, &st); err != nil {
		return err
	}
	if !st.Certified || st.Nodes != m.n() || st.Edges != m.size() {
		return fmt.Errorf("create %s: certified=%v nodes=%d edges=%d, want certified with %d nodes, %d edges",
			name, st.Certified, st.Nodes, st.Edges, m.n(), m.size())
	}
	return nil
}

// postBatch sends one binary update-batch frame and decodes the ack.
func (d *daemon) postBatch(name string, frame []byte) (*planarcert.WireBatchAck, error) {
	raw, err := d.do(http.MethodPost, "/v1/sessions/"+name+"/updates", wire.ContentType, frame)
	if err != nil {
		return nil, err
	}
	return planarcert.DecodeBatchAckFrame(raw)
}

// audit runs a full verification sweep of the session's current
// assignment.
func (d *daemon) audit(name string) (*planarcert.Report, error) {
	var rep planarcert.Report
	err := d.doJSON(http.MethodPost, "/v1/sessions/"+name+"/verify", nil, &rep)
	return &rep, err
}

func (d *daemon) status(name string) (*server.SessionStatus, error) {
	var st server.SessionStatus
	err := d.doJSON(http.MethodGet, "/v1/sessions/"+name, nil, &st)
	return &st, err
}

func (d *daemon) flush(name string) error {
	return d.doJSON(http.MethodPost, "/v1/sessions/"+name+"/flush", nil, nil)
}

func (d *daemon) graph(name string) (*server.GraphExport, error) {
	var g server.GraphExport
	err := d.doJSON(http.MethodGet, "/v1/sessions/"+name+"/graph", nil, &g)
	return &g, err
}

func (d *daemon) certificates(name string) (map[planarcert.NodeID]server.WireCertificate, error) {
	var certs map[planarcert.NodeID]server.WireCertificate
	err := d.doJSON(http.MethodGet, "/v1/sessions/"+name+"/certificates", nil, &certs)
	return certs, err
}

// verifyOneShot checks an arbitrary assignment with POST /v1/verify.
func (d *daemon) verifyOneShot(scheme planarcert.SchemeName, m *mirror, certs map[planarcert.NodeID]server.WireCertificate) (*planarcert.Report, error) {
	var rep planarcert.Report
	req := server.VerifyRequest{Scheme: scheme, Graph: server.GraphSpec{Edges: m.sortedEdges()}, Certificates: certs}
	err := d.doJSON(http.MethodPost, "/v1/verify", req, &rep)
	return &rep, err
}

// traces reads every retained batch trace from /debug/traces.
func (d *daemon) traces() (*tracesPage, error) {
	var page tracesPage
	err := d.doJSON(http.MethodGet, "/debug/traces", nil, &page)
	return &page, err
}
