package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"time"

	"knives/internal/advisor"
	"knives/internal/cost"
	"knives/internal/devflag"
	"knives/internal/statestore"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

// Production settings from the README's knivesd example; everything else is
// the daemon's default (hdd model, drift-tracking=exact, default snapshot
// cadence, ingest shards and group size).
const (
	requestTimeout = 30 * time.Second
	maxInFlight    = 8
	maxQueue       = 32
)

// daemon is one in-process knivesd: the service on a durable WAL directory,
// served over loopback HTTP.
type daemon struct {
	dir string
	reg *telemetry.Registry
	svc *advisor.Service
	srv *httptest.Server
}

// defaultModel resolves the pricing model exactly as knivesd does with no
// device flags.
func defaultModel() (cost.Model, error) {
	fs := flag.NewFlagSet("knivesd", flag.ContinueOnError)
	devf := devflag.Register(fs)
	if err := fs.Parse(nil); err != nil {
		return nil, err
	}
	d, err := devf()
	if err != nil {
		return nil, err
	}
	return cost.ModelByName("hdd", d)
}

// openService opens the WAL in dir and builds the service on it. With a
// tracer the WAL directory and the state store are wrapped so every append,
// snapshot, write and fsync is recorded.
func openService(dir string, reg *telemetry.Registry, tr *tracer) (*advisor.Service, *statestore.Durable, error) {
	model, err := defaultModel()
	if err != nil {
		return nil, nil, err
	}
	fsys, err := vfs.Dir(dir)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		fsys = &tracedFS{FS: fsys, tr: tr}
	}
	durable, err := statestore.Open(fsys, statestore.Options{
		DriftWindow:   advisor.DefaultDriftWindow,
		SnapshotEvery: statestore.DefaultSnapshotEvery,
		Metrics:       reg,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("open state store: %w", err)
	}
	var st statestore.Store = durable
	if tr != nil {
		st = &tracedStore{Store: durable, tr: tr}
	}
	svc, err := advisor.OpenService(advisor.Config{
		Model:          model,
		DriftThreshold: advisor.DefaultDriftThreshold,
		DriftWindow:    advisor.DefaultDriftWindow,
		DriftTracking:  advisor.TrackExact,
		SketchCapacity: advisor.DefaultSketchCapacity,
		IngestShards:   advisor.DefaultIngestShards,
		IngestGroup:    advisor.DefaultIngestGroup,
		Store:          st,
		Telemetry:      reg,
	})
	if err != nil {
		durable.Close()
		return nil, nil, err
	}
	return svc, durable, nil
}

// startDaemon opens a fresh service on dir and serves it on a loopback port.
func startDaemon(dir string, tr *tracer) (*daemon, error) {
	reg := telemetry.NewRegistry()
	svc, _, err := openService(dir, reg, tr)
	if err != nil {
		return nil, err
	}
	h := advisor.NewServerWith(svc, advisor.ServerConfig{
		RequestTimeout: requestTimeout,
		MaxInFlight:    maxInFlight,
		MaxQueue:       maxQueue,
		RetryAfter:     time.Second,
		Telemetry:      reg,
	})
	return &daemon{dir: dir, reg: reg, svc: svc, srv: httptest.NewServer(h)}, nil
}

// stop drains the HTTP server, then closes the service, which snapshots and
// fsyncs the WAL.
func (d *daemon) stop() error {
	d.srv.Close()
	return d.svc.Close()
}

// recovery is what re-opening a stopped daemon's WAL found.
type recovery struct {
	seconds float64
	records int64
	tables  map[string]statestore.TableState
}

// reopen re-opens the WAL of a stopped daemon the way a restarted knivesd
// would (state store plus service), times it, and returns the recovered
// per-table state.
func reopen(dir string) (recovery, error) {
	t0 := time.Now()
	svc, durable, err := openService(dir, telemetry.NewRegistry(), nil)
	if err != nil {
		return recovery{}, err
	}
	rec := recovery{
		seconds: time.Since(t0).Seconds(),
		records: durable.Report().Records,
		tables:  map[string]statestore.TableState{},
	}
	for _, ts := range durable.Recovered() {
		rec.tables[ts.Table.Name] = ts
	}
	if err := svc.Close(); err != nil {
		return recovery{}, err
	}
	return rec, nil
}
