package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"robustmap/internal/engine"
	"robustmap/internal/fabric"
	"robustmap/internal/httpapi"
	"robustmap/internal/mapstore"
	"robustmap/internal/service"
)

// closeGrace bounds how long a stack waits for its service to drain
// when it is taken down. Every job has finished by then, so hitting it
// means a goroutine is stuck and the run must fail rather than hang.
const closeGrace = 30 * time.Second

func quiet(string, ...any) {}

// daemon is what cmd/robustmapd runs, wired in process: an optional
// store, the scheduler, the REST surface on a loopback listener, and a
// client with its own connection pool (so closing the daemon can close
// every connection and leave no goroutine behind).
type daemon struct {
	store  *mapstore.Store
	local  *service.Local
	server *httptest.Server
	conns  *http.Transport
	client *httpapi.Client
}

// startDaemon brings a daemon up and returns once it answers a health
// probe. storeDir "" runs without persistence.
func startDaemon(ctx context.Context, cfg service.LocalConfig, storeDir string, opts ...httpapi.ServerOption) (*daemon, error) {
	d := &daemon{}
	if storeDir != "" {
		st, err := mapstore.Open(storeDir, mapstore.Config{EngineVersion: engine.MeasurementVersion, Logf: quiet})
		if err != nil {
			return nil, err
		}
		d.store, cfg.Store = st, st
		opts = append(opts, httpapi.WithMaps(st))
	}
	d.local = service.NewLocal(cfg)
	opts = append(opts, httpapi.WithLogger(quiet))
	d.server = httptest.NewServer(httpapi.NewServer(d.local, opts...))
	d.conns = &http.Transport{MaxIdleConnsPerHost: 8}
	d.client = d.dial(d.server.URL)
	if err := d.client.Health(ctx); err != nil {
		return nil, errors.Join(fmt.Errorf("daemon not healthy: %w", err), d.close())
	}
	return d, nil
}

// dial returns a client for addr on the daemon's connection pool.
func (d *daemon) dial(addr string) *httpapi.Client {
	return httpapi.NewClient(addr, httpapi.WithHTTPClient(&http.Client{Transport: d.conns}))
}

// close stops the daemon front to back and waits for each part.
func (d *daemon) close() error {
	d.conns.CloseIdleConnections()
	d.server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	err := d.local.Close(ctx)
	if d.store != nil {
		err = errors.Join(err, d.store.Close())
	}
	d.conns.CloseIdleConnections()
	return err
}

// fleet is a coordinator daemon in front of worker daemons, wired as
// internal/fabric's fleet tests wire it.
type fleet struct {
	coord   *daemon
	workers []*daemon
	// dispatch pools the coordinator's connections to its workers.
	dispatch *http.Transport
}

// startFleet starts n single-job workers on the given resolvers and a
// coordinator that shards across them (2 shards per worker, no hedging:
// a hedge would measure cells twice and the cost would depend on
// timing). A non-nil tracer wraps the coordinator's worker handles.
func startFleet(ctx context.Context, resolvers []service.Resolver, tr *tracer) (*fleet, error) {
	f := &fleet{dispatch: &http.Transport{MaxIdleConnsPerHost: 8}}
	for _, r := range resolvers {
		specs := fabric.NewSpecCache(0)
		w, err := startDaemon(ctx, service.LocalConfig{Workers: 1, Resolver: r, Specs: specs}, "", httpapi.WithSpecs(specs))
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		f.workers = append(f.workers, w)
	}
	reg := fabric.NewRegistry(0, func(addr string) fabric.Worker {
		c := httpapi.NewClient(addr, httpapi.WithHTTPClient(&http.Client{Transport: f.dispatch}))
		if tr != nil {
			return newTracedWorker(c, tr)
		}
		return c
	})
	for _, w := range f.workers {
		reg.RegisterWorker(w.server.URL)
	}
	coord, err := startDaemon(ctx, service.LocalConfig{
		Workers: 1,
		Runner:  fabric.NewCoordinator(fabric.CoordinatorConfig{Registry: reg, Logf: quiet}),
	}, "", httpapi.WithRegistry(reg))
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	f.coord = coord
	return f, nil
}

func (f *fleet) close() error {
	var err error
	if f.coord != nil {
		err = f.coord.close()
	}
	f.dispatch.CloseIdleConnections()
	for _, w := range f.workers {
		err = errors.Join(err, w.close())
	}
	return err
}
