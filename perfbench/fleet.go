package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/fuzz"
	"repro/internal/manager"
)

const (
	// fleetDriver is the driver whose corpus and crashes the fleet syncs.
	fleetDriver = "rtl8029"
	// fleetPoolExecs is the budget of the single-worker campaign that makes
	// the feed pool; one worker keeps the pool a function of the seed.
	fleetPoolExecs = 8_000
	// poolEntries and poolCrashes fix the pool's shape, so that seeds vary
	// its content but not the work per RPC: how many crash entries the
	// manager rewrites on a report moved throughput by 20% between seeds
	// on a 2-vCPU Xeon host.
	// Over seeds 1-40 the campaign admitted at least 53 entries and found
	// at least 5 crashes.
	poolEntries = 40
	poolCrashes = 4
	// fleetClients is the number of closed-loop worker clients.
	fleetClients = 2
	// leaseTicks is the number of flushes in a lease before the final one:
	// manager.RunWorker flushes once per sync interval, and a lease here
	// stands for a five-minute fuzz campaign (the nightly fuzz jobs' length)
	// at manager.DefaultSyncInterval.
	leaseTicks = int(5 * time.Minute / manager.DefaultSyncInterval)
	// fleetSlots is the size of the campaign's slot table. Every lease
	// completes its slot, so a run needs one slot per lease: about 16
	// leases a second on a 2-vCPU Xeon host. The table is not resized by
	// run length, so that GET /status, which walks it, costs the same in
	// every run; a run that exhausts it fails its Poll check.
	fleetSlots = 4096
	// latencySamples is how many RPC latencies each client keeps: enough
	// for a p99 with hundreds of samples beyond it.
	latencySamples = 20_000
	// fleetLap is how often the timed phase takes a heap lap.
	fleetLap = time.Second
)

// fleetPool is what the worker clients send: the corpus, crashes, and
// covered blocks of a seeded fuzz campaign.
type fleetPool struct {
	tg      target
	entries []fuzz.Entry
	hashes  []string
	crashes []*fuzz.Crash
	blocks  []uint32
	static  int
	// execs and instrs are the campaign's counters, the progress a lease
	// reports per tick, and elapsed its wall time.
	execs, instrs uint64
	elapsed       time.Duration
}

func makeFleetPool(ctx context.Context, seed int64) (*fleetPool, error) {
	tg, err := assemble(fleetDriver, corpus.Buggy)
	if err != nil {
		return nil, err
	}
	cfg := fuzz.DefaultConfig()
	cfg.Workers = 1
	cfg.MaxExecs = fleetPoolExecs
	cfg.Seed = seed
	cfg.Persist = true
	fz := fuzz.New(tg.img, cfg)
	rep, err := fz.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("feed pool campaign: %w", err)
	}
	entries, crashes := fz.Corpus().Export(), fz.Crashes()
	if len(entries) < poolEntries || len(crashes) < poolCrashes {
		return nil, fmt.Errorf("feed pool campaign found %d entries and %d crashes, want %d and %d", len(entries), len(crashes), poolEntries, poolCrashes)
	}
	p := &fleetPool{tg: tg, entries: entries[:poolEntries], crashes: crashes[:poolCrashes], blocks: fz.Cov.CoveredBlocks(), static: fz.Cov.TotalStatic, execs: rep.Execs, instrs: rep.Instructions, elapsed: rep.Elapsed}
	for _, e := range p.entries {
		p.hashes = append(p.hashes, manager.FeedHash(e.Feed))
	}
	return p, nil
}

// fleet is a manager serving over loopback from an on-disk state
// directory, as ddtd runs, with its connected clients.
type fleet struct {
	pool    *fleetPool
	dir     string
	state   *manager.State
	sched   *manager.Scheduler
	srv     *http.Server
	served  chan error
	base    string
	clients []*fleetClient
}

func setupFleet(ctx context.Context, workDir string, seed int64, rep int) (*fleet, error) {
	pool, err := makeFleetPool(ctx, seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workDir, fmt.Sprintf("fleet-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	state, err := manager.OpenState(dir)
	if err != nil {
		return nil, err
	}
	sched, err := manager.NewScheduler(manager.Config{Campaigns: []manager.CampaignSpec{{
		ID: "fleet", Driver: fleetDriver, Workers: fleetSlots, Duration: "5m", Seed: seed, Persist: true,
	}}}, manager.DefaultLeaseTTL)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &fleet{
		pool:   pool,
		dir:    dir,
		state:  state,
		sched:  sched,
		srv:    &http.Server{Handler: manager.NewManager(state, sched).Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { f.served <- f.srv.Serve(ln) }()
	for i := 0; i < fleetClients; i++ {
		hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
		fc := &fleetClient{
			id:     i,
			c:      manager.NewClient(f.base, hc),
			hc:     hc,
			base:   f.base,
			pool:   pool,
			lat:    newReservoir(latencySamples, seed*fleetClients+int64(i)),
			feeds:  make(map[string]bool),
			keys:   make(map[string]bool),
			blocks: make(map[uint32]bool),
		}
		f.clients = append(f.clients, fc)
		if _, err := fc.c.Connect(ctx, fmt.Sprintf("bench-%d", i)); err != nil {
			f.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
	}
	return f, nil
}

// close stops the server, waits for it, flushes the state and removes the
// state directory.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, fc := range f.clients {
		fc.hc.CloseIdleConnections()
	}
	if ferr := f.state.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	if rerr := os.RemoveAll(f.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// fleetClient replays one worker's RPC stream.
type fleetClient struct {
	id   int
	c    *manager.Client
	hc   *http.Client
	base string
	pool *fleetPool
	// What the client sent, for the final set check.
	feeds  map[string]bool
	keys   map[string]bool
	blocks map[uint32]bool
	// offered counts the corpus entries sent in Sync during a replay, and
	// leases the leases completed.
	offered, leases int
	// lat samples the latencies (ms) of the RPCs sent since the last
	// resetLatencies.
	lat *reservoir
}

// call times one RPC, records it, and checks it answered 200.
func (fc *fleetClient) call(kind string, tr *tracer, parent int64, t *tally, fn func() error) bool {
	sp := tr.begin(parent, "manager.Client."+kind, "")
	start := time.Now()
	err := fn()
	d := time.Since(start)
	tr.end(sp)
	fc.lat.add(ms(d))
	return t.check(err == nil, func() string { return fmt.Sprintf("client %d: %s: %v", fc.id, kind, err) })
}

// status fetches GET /status as JSON.
func (fc *fleetClient) status(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fc.base+"/status", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := fc.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var page manager.StatusPage
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&page)
	} else {
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	// Drain what the decoder left, so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}

// lease replays one fuzz lease the way manager.RunWorker runs it: a Poll,
// then one flush per tick and a final flush, each a Sync and a Report.
// The lease's campaign finds the pool within its first tick (a two-worker
// campaign on rtl8029 runs about 10k execs/s on a 2-vCPU Xeon host, more
// than the pool's 8000 execs in manager.DefaultSyncInterval), so the
// first flush carries the pool's new entries, crashes and covered blocks,
// the later ones only the Have list and the progress counters, and the
// final report re-sends every crash with Final set, which completes the
// slot. After the Poll the client fetches GET /status once, as a
// dashboard following the fleet would.
func (fc *fleetClient) lease(ctx context.Context, tr *tracer, parent int64, t *tally) {
	p := fc.pool
	var lease *manager.CampaignLease
	if !fc.call("Poll", tr, parent, t, func() (err error) {
		lease, err = fc.c.Poll(ctx)
		if err == nil && lease == nil {
			err = errors.New("no lease")
		}
		return err
	}) {
		return
	}
	fc.call("Status", tr, parent, t, func() error { return fc.status(ctx) })
	have := make(map[string]bool, len(lease.Seeds))
	for _, s := range lease.Seeds {
		have[manager.FeedHash(s)] = true
	}
	var all []manager.CrashReport
	for _, c := range p.crashes {
		all = append(all, manager.CrashReport{Crash: c})
		fc.keys[c.Key()] = true
	}
	for tick := 1; tick <= leaseTicks+1; tick++ {
		final := tick > leaseTicks
		var added []fuzz.Entry
		var crashes []manager.CrashReport
		var blocks []uint32
		if tick == 1 {
			for k, e := range p.entries {
				if !have[p.hashes[k]] {
					have[p.hashes[k]] = true
					added = append(added, e)
					fc.feeds[p.hashes[k]] = true
					fc.offered++
				}
			}
			crashes, blocks = all, p.blocks
			for _, b := range blocks {
				fc.blocks[b] = true
			}
		}
		if final {
			crashes = all
		}
		haveList := make([]string, 0, len(have))
		for h := range have {
			haveList = append(haveList, h)
		}
		var sresp *manager.SyncResponse
		fc.call("Sync", tr, parent, t, func() (err error) {
			sresp, err = fc.c.Sync(ctx, &manager.SyncRequest{LeaseID: lease.LeaseID, Driver: p.tg.name, Added: added, Have: haveList})
			return err
		})
		if sresp != nil {
			for _, s := range sresp.Seeds {
				have[manager.FeedHash(s)] = true
			}
		}
		fc.call("Report", tr, parent, t, func() error {
			_, err := fc.c.Report(ctx, &manager.ReportRequest{
				LeaseID: lease.LeaseID, Driver: p.tg.name, Final: final, Crashes: crashes,
				NewBlocks: blocks, BlocksStatic: p.static,
				Execs: uint64(tick) * p.execs, Instructions: uint64(tick) * p.instrs,
			})
			return err
		})
	}
	fc.leases++
}

// fleetStats is what one stream replay did.
type fleetStats struct {
	wall     time.Duration
	cpu      time.Duration // process CPU time, server and clients
	rpcs     int           // RPCs completed
	offered  int
	admitted int
	leases   int // leases completed
	leaders  int // static leaders among the blocks the manager holds
}

// replay runs every client's lease loop until the deadline, then checks
// that the manager holds exactly the deduplicated union of what was sent.
func (f *fleet) replay(ctx context.Context, deadline time.Time, tr *tracer, parent int64, t *tally) fleetStats {
	before := len(f.state.CorpusEntries(fleetDriver))
	doneBefore := f.slotsDone()
	start, cpu0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	sent := make([]int, len(f.clients))
	for i, fc := range f.clients {
		sent[i] = fc.lat.n
		fc.offered, fc.leases = 0, 0
		wg.Add(1)
		go func(fc *fleetClient) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				fc.lease(ctx, tr, parent, t)
			}
		}(fc)
	}
	wg.Wait()
	st := fleetStats{wall: time.Since(start), cpu: cpuTime() - cpu0}
	feeds, keys, blocks := make(map[string]bool), make(map[string]bool), make(map[uint32]bool)
	leases := 0
	for i, fc := range f.clients {
		leases += fc.leases
		st.rpcs += fc.lat.n - sent[i]
		st.offered += fc.offered
		for h := range fc.feeds {
			feeds[h] = true
		}
		for k := range fc.keys {
			keys[k] = true
		}
		for b := range fc.blocks {
			blocks[b] = true
		}
	}
	entries := f.state.CorpusEntries(fleetDriver)
	st.admitted = len(entries) - before
	gotFeeds := make(map[string]bool)
	for _, e := range entries {
		gotFeeds[e.Hash] = true
	}
	t.check(sameSet(gotFeeds, feeds), func() string {
		return fmt.Sprintf("fleet: manager corpus has %d feeds, clients sent %d distinct", len(gotFeeds), len(feeds))
	})
	gotKeys := make(map[string]bool)
	for _, c := range f.state.Crashes(fleetDriver) {
		gotKeys[c.Key] = true
	}
	t.check(sameSet(gotKeys, keys), func() string {
		return fmt.Sprintf("fleet: manager holds %d crash keys, clients sent %d distinct", len(gotKeys), len(keys))
	})
	st.leases = leases
	done := f.slotsDone() - doneBefore
	t.check(done == leases, func() string {
		return fmt.Sprintf("fleet: %d slots completed, clients finished %d leases", done, leases)
	})
	covered := -1
	for _, s := range f.state.Summaries() {
		if s.Driver == fleetDriver {
			covered = s.BlocksCovered
		}
	}
	t.check(covered == len(blocks), func() string {
		return fmt.Sprintf("fleet: manager covers %d blocks, clients sent %d distinct", covered, len(blocks))
	})
	for b := range blocks {
		if f.pool.tg.leaders[b] {
			st.leaders++
		}
	}
	return st
}

// resetLatencies empties the clients' latency samples.
func (f *fleet) resetLatencies() {
	for _, fc := range f.clients {
		fc.lat.reset()
	}
}

// latencies returns the clients' latency samples (ms), a uniform sample of
// each client's RPCs since the last resetLatencies.
func (f *fleet) latencies() []float64 {
	var out []float64
	for _, fc := range f.clients {
		out = append(out, fc.lat.xs...)
	}
	return out
}

// slotsDone counts the campaign slots a final report completed.
func (f *fleet) slotsDone() int {
	campaigns, _ := f.sched.Status()
	n := 0
	for _, c := range campaigns {
		n += c.Done
	}
	return n
}

func sameSet[K comparable](a, b map[K]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
