package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eyewnder/internal/backend"
	"eyewnder/internal/detector"
	"eyewnder/internal/obs"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// conns is the number of client connections every workload opens: one
// report stream and one control (or audit) connection.
const conns = 2

// deployment is one in-process eyeWnder back-end on a durable store,
// served over loopback TCP, plus the benchmark's client connections.
type deployment struct {
	dir   string
	reg   *obs.Registry
	disk  *store.Disk
	be    *backend.Backend
	srv   *wire.Server
	conns []*wire.Client
	cv    uint32 // config version the Welcome advertised
}

func (s *spec) storeOptions(reg *obs.Registry) store.Options {
	return store.Options{Sync: s.sync, SnapshotEvery: s.snapshotEvery, Metrics: reg}
}

func (s *spec) backendConfig(st store.Store, reg *obs.Registry) backend.Config {
	return backend.Config{
		Params:         s.base,
		Users:          s.users,
		UsersEstimator: detector.EstimatorMean,
		Store:          st,
		RetainRounds:   s.retain,
		Metrics:        reg,
	}
}

// deploy opens a fresh store in dir, builds the back-end, provisions the
// workload's campaigns, serves it, and dials and handshakes every client
// connection. With a tracer the store, the report sink and the handler
// are wrapped; the server gets exactly the StreamOpts Backend.Serve
// builds.
func deploy(s *spec, dir string, tr *tracer) (*deployment, error) {
	dep := &deployment{dir: dir, reg: obs.New()}
	ok := false
	defer func() {
		if !ok {
			dep.teardown()
		}
	}()
	var err error
	if dep.disk, err = store.Open(dir, s.storeOptions(dep.reg)); err != nil {
		return nil, fmt.Errorf("store open: %w", err)
	}
	var st store.Store = dep.disk
	if tr != nil {
		st = &tracedStore{Store: dep.disk, tr: tr}
	}
	cfg := s.backendConfig(st, dep.reg)
	if dep.be, err = backend.New(cfg); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	for _, c := range s.campaigns {
		if err := dep.be.AddCampaign(c); err != nil {
			return nil, fmt.Errorf("provision campaign %d: %w", c.ID, err)
		}
	}
	if tr == nil {
		dep.srv, err = dep.be.Serve("127.0.0.1:0")
	} else {
		dep.srv, err = wire.ServeWithSinkOpts("127.0.0.1:0", tracedHandler(dep.be.Handler(), tr),
			&tracedSink{be: dep.be, tr: tr}, wire.StreamOpts{
				AckBatch:  cfg.AckBatch,
				Config:    dep.be.WireConfig,
				Campaigns: dep.be.Campaigns,
				Metrics:   cfg.Metrics,
			})
	}
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for i := 0; i < conns; i++ {
		c, err := wire.Dial(dep.srv.Addr())
		if err != nil {
			return nil, err
		}
		dep.conns = append(dep.conns, c)
		cf, err := c.Handshake()
		if err != nil {
			return nil, fmt.Errorf("handshake: %w", err)
		}
		dep.cv = cf.ConfigVersion
	}
	ok = true
	return dep, nil
}

// teardown stops everything deploy started, leaving the data directory
// in place for recovery.
func (d *deployment) teardown() error {
	var errs []error
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
	if d.srv != nil {
		errs = append(errs, d.srv.Close())
		d.srv = nil
	}
	if d.be != nil {
		errs = append(errs, d.be.Close())
		d.be = nil
	}
	if d.disk != nil {
		errs = append(errs, d.disk.Close())
		d.disk = nil
	}
	return errors.Join(errs...)
}

// walTail returns the flushed size of the active WAL segment: the bytes
// a restart right now would replay on top of the newest snapshot.
func (d *deployment) walTail() (int64, error) {
	files, err := d.disk.Manifest()
	if err != nil {
		return 0, err
	}
	for _, f := range files {
		if f.Kind == store.FileWAL && !f.Sealed {
			return f.Size, nil
		}
	}
	return 0, errors.New("no active WAL segment")
}

// timedSetups deploys into each of dirs in turn and keeps the last
// deployment; the others are torn down. It returns every set-up time:
// store open, back-end construction, campaign provisioning, serve, and
// dial plus handshake. The directories are created and made durable
// before the first deployment, and the caller removes them after the
// run, so no directory create or remove is pending in the filesystem
// journal when a deployment's own fsyncs commit it.
func timedSetups(s *spec, dirs []string, tr *tracer) (*deployment, []float64, error) {
	for _, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	if err := syncDir(filepath.Dir(dirs[0])); err != nil {
		return nil, nil, err
	}
	var times []float64
	for i, dir := range dirs {
		start := time.Now()
		dep, err := deploy(s, dir, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == len(dirs)-1 {
			return dep, times, nil
		}
		if err := dep.teardown(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, errors.New("no set-up requested")
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// recoveryRuns is how many times a run re-opens its data directory;
// the recovery times are medians.
const recoveryRuns = 15

// recovery is the outcome of re-opening a run's data directory: the
// median store.Open time, backend.New time and their sum.
type recovery struct {
	openS, restoreS, totalS float64
}

// recoverDir times store.Open plus backend.New on a torn-down
// deployment's directory, recoveryRuns times, checking each time that
// every campaign's last closed round came back with the Users_th the run
// published.
func recoverDir(s *spec, dir string, lastTh map[uint32]closedRound) (recovery, error) {
	var open, restore, total []float64
	for i := 0; i < recoveryRuns; i++ {
		// Recovery runs in a fresh process: start each from a collected
		// heap, not from the garbage of the run or the last recovery.
		runtime.GC()
		o, r, err := recoverOnce(s, dir, lastTh)
		if err != nil {
			return recovery{}, err
		}
		open, restore, total = append(open, o), append(restore, r), append(total, o+r)
	}
	return recovery{openS: median(open), restoreS: median(restore), totalS: median(total)}, nil
}

func recoverOnce(s *spec, dir string, lastTh map[uint32]closedRound) (openS, restoreS float64, err error) {
	start := time.Now()
	disk, err := store.Open(dir, s.storeOptions(nil))
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: store open: %w", err)
	}
	defer disk.Close()
	opened := time.Now()
	be, err := backend.New(s.backendConfig(disk, nil))
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: backend: %w", err)
	}
	defer be.Close()
	openS, restoreS = opened.Sub(start).Seconds(), time.Since(opened).Seconds()
	for c, cr := range lastTh {
		th, err := be.CampaignThreshold(c, cr.round)
		if err != nil {
			return 0, 0, fmt.Errorf("recovery: campaign %d round %d: %w", c, cr.round, err)
		}
		if th != cr.usersTh {
			return 0, 0, fmt.Errorf("recovery: campaign %d round %d Users_th %v, published %v", c, cr.round, th, cr.usersTh)
		}
	}
	return openS, restoreS, nil
}
