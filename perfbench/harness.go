package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"tesc/api"
	"tesc/client"
	"tesc/internal/server"
)

// harness is one in-process tescd behind a loopback listener, driven
// through the typed client exactly as a remote caller would.
type harness struct {
	srv   *server.Server
	hs    *http.Server
	tr    *http.Transport
	cl    *client.Client
	serve chan error // receives http.Server.Serve's return
}

// startHarness boots a server. A non-empty dataDir runs it durable, as
// tescd -data does: LoadData opens the WAL, fsync policy "always".
func startHarness(dataDir string) (*harness, error) {
	cfg := server.Config{}
	if dataDir != "" {
		cfg.DataDir = dataDir
		cfg.FsyncPolicy = "always"
	}
	srv := server.New(cfg)
	if dataDir != "" {
		if _, err := srv.LoadData(); err != nil {
			return nil, fmt.Errorf("loading data dir: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &harness{
		srv:   srv,
		hs:    &http.Server{Handler: srv.Handler()},
		tr:    &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		serve: make(chan error, 1),
	}
	go func() { h.serve <- h.hs.Serve(ln) }()
	h.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: h.tr, Timeout: 2 * time.Minute}))
	return h, nil
}

// close stops the listener, cancels jobs, flushes checkpoints and closes
// the WAL, and waits for the serve goroutine to return.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timeout here still leaves Close to run
	<-h.serve
	h.srv.Drain(ctx)
	h.srv.Close()
	h.tr.CloseIdleConnections()
}

// setup registers both graphs and their events and warms the bench
// graph's vicinity index with one importance query: the work setup_s
// times.
func (h *harness) setup(ctx context.Context, w *world) error {
	for _, reg := range []struct {
		name   string
		events map[string][]int
	}{{benchGraph, w.plantedEvents()}, {vocabGraph, w.vocabEvents()}} {
		if _, err := h.cl.RegisterGraph(ctx, api.RegisterGraphRequest{Name: reg.name, EdgeList: w.edges}); err != nil {
			return fmt.Errorf("registering graph %s: %w", reg.name, err)
		}
		if _, err := h.cl.RegisterEvents(ctx, reg.name, api.RegisterEventsRequest{Events: reg.events}); err != nil {
			return fmt.Errorf("registering events on %s: %w", reg.name, err)
		}
	}
	if _, err := h.cl.Correlate(ctx, benchGraph, correlateRequest(0, 1)); err != nil {
		return fmt.Errorf("index warm-up query: %w", err)
	}
	return nil
}
