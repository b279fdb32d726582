package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/props"
	"repro/internal/store"
	"repro/internal/tree"
)

// Offered rates of the serve workload, in requests per second. The low rate
// takes half the window; each ladder rate takes an eighth. The high rate is
// a fixed ladder step below the capacity measured on a 2-core machine.
const (
	lowRate      = 100
	highRate     = 400
	latencyLimit = 100.0 // ms; the p99 a ladder rate must meet to count toward max_rps
)

var ladderRates = []float64{200, 400, 800, 1600}

// servedKey is one (graph, n, decider, seed) request of decided's
// vocabulary, with the answer an in-process evaluation gives.
type servedKey struct {
	class   string // warm | large | nocache | fresh | trials
	kind    string
	n       int
	decider string
	seed    int64
	want    bool // expected "accepted" of /v1/eval
}

func (k *servedKey) path() string {
	if k.class == "trials" {
		return fmt.Sprintf("/v1/trials?graph=%s&n=%d&decider=%s&trials=200&seed=%d", k.kind, k.n, k.decider, k.seed)
	}
	p := fmt.Sprintf("/v1/eval?graph=%s&n=%d&decider=%s&seed=%d", k.kind, k.n, k.decider, k.seed)
	if k.class == "nocache" {
		p += "&nocache=1"
	}
	return p
}

// servedInstance rebuilds, through the public packages, the instance and
// decider decided binds to a key, so every answer can be checked.
func servedInstance(kind string, n int, decider string, seed int64) (*graph.Labeled, engine.Decider, error) {
	var g *graph.Graph
	switch kind {
	case "cycle":
		g = graph.Cycle(n)
	case "path":
		g = graph.Path(n)
	case "star":
		g = graph.Star(n)
	case "grid":
		g = graph.Grid(n, 4)
	case "tree":
		g = graph.CompleteBinaryTree(n)
	case "pyramid":
		g = tree.NewPyramid(n).G
	default:
		return nil, engine.Decider{}, fmt.Errorf("unknown graph kind %q", kind)
	}
	switch decider {
	case "3col":
		return graph.RandomLabels(g, []graph.Label{"0", "1", "2"}, seed), local.EngineObliviousDecider(props.ThreeColoringVerifier()), nil
	case "mis":
		return graph.RandomLabels(g, []graph.Label{"0", "1"}, seed), local.EngineObliviousDecider(props.MISVerifier()), nil
	case "degree2":
		return graph.UniformlyLabeled(g, ""), local.EngineObliviousDecider(props.BoundedDegreeVerifier(2)), nil
	case "triangle-free":
		return graph.UniformlyLabeled(g, ""), local.EngineObliviousDecider(props.TriangleFreeVerifier()), nil
	}
	return nil, engine.Decider{}, fmt.Errorf("unknown decider %q", decider)
}

func (k *servedKey) reference() error {
	if k.class == "trials" {
		return nil
	}
	l, dec, err := servedInstance(k.kind, k.n, k.decider, k.seed)
	if err != nil {
		return err
	}
	out := engine.EvalOblivious(dec, l, engine.Options{})
	if out.Err != nil {
		return fmt.Errorf("reference %s: %w", k.path(), out.Err)
	}
	k.want = out.Accepted
	return nil
}

// warmKeys are the zipf-ranked cached keys, most popular first. Star keys
// stay at n <= 8: larger uniformly labelled stars hit the factorial
// individualisation search of the canonical code (see README.md).
func warmKeys() []*servedKey {
	w := func(kind string, n int, dec string, seed int64) *servedKey {
		return &servedKey{class: "warm", kind: kind, n: n, decider: dec, seed: seed}
	}
	return []*servedKey{
		w("cycle", 64, "degree2", 1), w("path", 256, "degree2", 1), w("cycle", 256, "3col", 1),
		w("grid", 32, "degree2", 1), w("tree", 8, "degree2", 1), w("cycle", 1024, "degree2", 1),
		w("star", 6, "degree2", 1), w("grid", 16, "mis", 1), w("pyramid", 4, "degree2", 1),
		w("cycle", 512, "triangle-free", 1), w("star", 8, "degree2", 1), w("tree", 10, "triangle-free", 1),
		w("cycle", 256, "3col", 2), w("pyramid", 5, "triangle-free", 1), w("path", 64, "mis", 3),
		w("grid", 8, "triangle-free", 1),
	}
}

// serveMix hands out requests in blocks of 50: 40 warm (zipf-skewed over
// warmKeys, s=1.1, with the counts rounded to whole requests), 3 trials
// sweeps, 3 nocache evals, 3 fresh-seed keys and 1 large instance. Fixed
// counts keep the key shares identical across seeds; the seed orders each
// block and picks fresh seeds.
type serveMix struct {
	rng                    *rand.Rand
	warm                   []*servedKey
	trials, nocache, large *servedKey
	quota                  []*servedKey // one block; nil marks a fresh-seed slot
	block                  []*servedKey
	freshSeed              int64
}

func newServeMix(seed int64) *serveMix {
	m := &serveMix{
		rng: rand.New(rand.NewSource(seed)), warm: warmKeys(), freshSeed: 1_000_000 + seed*100_000,
		trials:  &servedKey{class: "trials", kind: "cycle", n: 64, decider: "coin", seed: 1},
		nocache: &servedKey{class: "nocache", kind: "cycle", n: 4096, decider: "degree2", seed: 1},
		large:   &servedKey{class: "large", kind: "cycle", n: 100_000, decider: "degree2", seed: 1},
	}
	for i, n := range zipfCounts(len(m.warm), 40, 1.1) {
		for j := 0; j < n; j++ {
			m.quota = append(m.quota, m.warm[i])
		}
	}
	for i := 0; i < 3; i++ {
		m.quota = append(m.quota, m.trials, m.nocache, nil)
	}
	m.quota = append(m.quota, m.large)
	return m
}

// zipfCounts splits total slots over k ranks in proportion to 1/rank^s,
// rounding by largest remainder.
func zipfCounts(k, total int, s float64) []int {
	w := make([]float64, k)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	left := total
	for i := range w {
		counts[i] = int(w[i] / sum * float64(total))
		left -= counts[i]
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa, fb := w[rem[a]]/sum*float64(total), w[rem[b]]/sum*float64(total)
		return fa-math.Floor(fa) > fb-math.Floor(fb)
	})
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	return counts
}

func (m *serveMix) next() *servedKey {
	if len(m.block) == 0 {
		m.block = append(m.block, m.quota...)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	k := m.block[0]
	m.block = m.block[1:]
	if k != nil {
		return k
	}
	m.freshSeed++
	if m.freshSeed%2 == 0 {
		return &servedKey{class: "fresh", kind: "cycle", n: 256, decider: "3col", seed: m.freshSeed}
	}
	return &servedKey{class: "fresh", kind: "grid", n: 32, decider: "mis", seed: m.freshSeed}
}

// references computes the expected answer of every eval key the mix hands
// out and of the fresh keys among the scheduled requests.
func (m *serveMix) references(steps ...[]*request) error {
	keys := append([]*servedKey{m.nocache, m.large}, m.warm...)
	for _, reqs := range steps {
		for _, r := range reqs {
			if r.key.class == "fresh" {
				keys = append(keys, r.key)
			}
		}
	}
	for _, k := range keys {
		if err := k.reference(); err != nil {
			return err
		}
	}
	return nil
}

// request is one scheduled request of a fixed-rate step.
type request struct {
	key      *servedKey
	offset   time.Duration // due time relative to the step start
	late     time.Duration // how late the generator handed it out
	latency  time.Duration // from due time to response read
	serverMs float64       // decided's own elapsedMs for the request
	sent     bool
	ok       bool
	traced   bool
}

// windowPercentile is the median over windows of each window's pth
// percentile.
func windowPercentile(windows map[string][]float64, p float64) float64 {
	var xs []float64
	for _, w := range windows {
		xs = append(xs, percentile(w, p))
	}
	return percentile(xs, 50)
}

// schedule draws one fixed-rate step: Poisson arrivals at rate for dur.
func schedule(mix *serveMix, rng *rand.Rand, rate float64, dur time.Duration) []*request {
	var reqs []*request
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return reqs
		}
		reqs = append(reqs, &request{key: mix.next(), offset: at})
	}
}

// stepResult summarises one fixed-rate step.
type stepResult struct {
	rate       float64
	sent, fail int
	lat        []float64 // ms, every sent request
	late       []float64 // ms, generator lateness
	backlog    int       // requests due but not started when the generator finished
	skipped    int       // requests never sent because the step's grace ran out
}

// ok reports whether the step counts toward max_rps: p99 within the limit,
// nothing failed or skipped, and the backlog flat.
func (s stepResult) ok(conns int) bool {
	return s.fail == 0 && s.skipped == 0 && percentile(s.lat, 99) <= latencyLimit &&
		s.backlog <= max(2*conns, s.sent/100)
}

// client is the open-loop load generator: one generator goroutine handing
// requests out at their due times, and one worker per connection.
type client struct {
	http  *http.Client
	base  string
	conns int
	tr    *tracer
}

func newClient(base string) *client {
	conns := min(2, runtime.NumCPU())
	return &client{
		http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		base: base, conns: conns,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// warm sends one request per warm key, so the resident instances and the
// cache are as a long-running service holds them.
func (c *client) warm(mix *serveMix) error {
	for _, k := range mix.warm {
		if !c.do(&request{key: k}) {
			return fmt.Errorf("warm-up request %s failed", k.path())
		}
	}
	return nil
}

// do sends one request and checks its answer.
func (c *client) do(r *request) bool {
	sp := -1
	if r.traced {
		sp = c.tr.begin("decided."+r.key.class, -1)
		defer c.tr.end(sp)
	}
	resp, err := c.http.Get(c.base + r.key.path())
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	if r.key.class == "trials" {
		var got struct {
			Requested, Committed int
			ElapsedMs            float64
		}
		if json.Unmarshal(body, &got) != nil {
			return false
		}
		r.serverMs = got.ElapsedMs
		return got.Requested == 200 && got.Committed == got.Requested
	}
	var got struct {
		Accepted  bool
		ElapsedMs float64
	}
	if json.Unmarshal(body, &got) != nil {
		return false
	}
	r.serverMs = got.ElapsedMs
	return got.Accepted == r.key.want
}

// step runs one fixed-rate step. Requests are timed from their due time, so
// a stalled server or generator shows as latency of the requests behind it.
func (c *client) step(reqs []*request, rate float64, dur time.Duration) stepResult {
	// Buffered to the step's request count: the generator must never block
	// on a busy worker, or its lateness would hide the server's backlog.
	queue := make(chan *request, len(reqs))
	var started atomic.Int64
	var giveUp atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				if giveUp.Load() {
					continue
				}
				started.Add(1)
				r.sent = true
				r.ok = c.do(r)
				r.latency = time.Since(start.Add(r.offset))
			}
		}()
	}
	for _, r := range reqs {
		due := start.Add(r.offset)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.late = time.Since(due)
		queue <- r
	}
	close(queue)
	res := stepResult{rate: rate, backlog: len(reqs) - int(started.Load())}
	grace := time.AfterFunc(dur/2+2*time.Second, func() { giveUp.Store(true) })
	wg.Wait()
	grace.Stop()
	for _, r := range reqs {
		if !r.sent {
			res.skipped++
			continue
		}
		res.sent++
		if !r.ok {
			res.fail++
		}
		res.lat = append(res.lat, ms(r.latency))
		res.late = append(res.late, ms(r.late))
	}
	return res
}

// daemon is a running cmd/decided process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDecided launches decided on a loopback port over the given store and
// returns once /readyz answers 200, with the time that took.
func startDecided(bin, storePath string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storePath)
	cmd.Stderr = os.Stderr
	// Linux: decided dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start decided: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		m := listenRE.FindStringSubmatch(line)
		if m != nil {
			addr <- m[1]
		}
		close(addr)
		io.Copy(io.Discard, br)
		d.done <- cmd.Wait()
	}()
	a, ok := <-addr
	if !ok {
		d.stop()
		return nil, 0, errors.New("decided did not report its listen address")
	}
	d.base = "http://" + a
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, 0, errors.New("decided not ready after 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains decided with SIGTERM, killing it if the drain overruns, and
// waits for the process to exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("decided did not drain within 30s")
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// statsz is the part of decided's /statsz the benchmark reads.
type statsz struct {
	Inflight  int               `json:"inflight"`
	Rejected  int64             `json:"rejected"`
	Deadlines int64             `json:"deadlineExceeded"`
	Cache     engine.CacheStats `json:"cache"`
	Store     *store.Stats      `json:"store"`
}

// statsz reads /statsz through hc, the load client's connection pool, so
// polling opens no connection beyond the load's.
func (d *daemon) statsz(hc *http.Client) (statsz, error) {
	var s statsz
	resp, err := hc.Get(d.base + "/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// prewriteLog writes the verdict log decided recovers at start: the verdicts
// of every warm key, produced by an in-process evaluation whose cache writes
// behind to the store as decided's does, plus history records.
func prewriteLog(path string, seed int64) error {
	st, err := store.Open(path, store.Options{QueueDepth: 2 * historyRecords})
	if err != nil {
		return err
	}
	cache := engine.NewViewCache()
	cache.SetPersist(func(dec string, h int, code []byte, v engine.Verdict) {
		st.Put(store.Record{Decider: dec, Horizon: h, Code: code, Verdict: bool(v)})
	})
	for _, k := range warmKeys() {
		l, dec, err := servedInstance(k.kind, k.n, k.decider, k.seed)
		if err != nil {
			st.Close()
			return err
		}
		if out := engine.EvalOblivious(dec, l, engine.Options{Cache: cache}); out.Err != nil {
			st.Close()
			return out.Err
		}
	}
	// History: verdicts of a decider no request names, standing in for the
	// log a long-running service accumulates, so start-up pays a recovery
	// scan and cache warm-up of realistic size.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < historyRecords; i++ {
		code := make([]byte, 24+rng.Intn(48))
		rng.Read(code)
		st.Put(store.Record{Decider: "history", Horizon: 1 + i%4, Code: code, Verdict: i%2 == 0})
	}
	if err := st.Flush(); err != nil {
		st.Close()
		return err
	}
	if drops := st.Stats().QueueDrops; drops > 0 {
		st.Close()
		return fmt.Errorf("pre-write dropped %d records", drops)
	}
	return st.Close()
}

// historyRecords is the number of history records in the pre-written log.
const historyRecords = 60_000

// runServe: open loop against cmd/decided over a pre-written store, at a
// low fixed rate and then up a fixed ladder of rates.
func runServe(e *env) (*outcome, error) {
	out := &outcome{}
	logPath := filepath.Join(e.dir, "verdicts.log")
	if err := prewriteLog(logPath, e.seed); err != nil {
		return nil, fmt.Errorf("pre-write log: %w", err)
	}
	rng := rand.New(rand.NewSource(e.seed))
	mix := newServeMix(e.seed)
	lowDur := e.seconds / 2
	stepDur := e.seconds / 8
	low := schedule(mix, rng, lowRate, lowDur)
	ladder := make([][]*request, len(ladderRates))
	for i, r := range ladderRates {
		ladder[i] = schedule(mix, rng, r, stepDur)
	}
	if err := mix.references(append([][]*request{low}, ladder...)...); err != nil {
		return nil, err
	}

	// The load leaves no gaps to calibrate in, so serve calibrates before
	// decided starts; serve is not gated, and its op_p50_rel is a guide.
	cal := newCalibration()
	out.cal = cal.sample(50)

	var d *daemon
	for rep := 0; rep < setupReps; rep++ {
		dm, took, err := startDecided(e.decided, logPath)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, took.Seconds())
		if rep < setupReps-1 {
			if err := dm.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dm
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()
	if e.trace {
		c.tr = newTracer()
		for i, r := range low {
			r.traced = i%2 == 1
		}
	}
	if err := c.warm(mix); err != nil {
		return nil, err
	}

	lowRes := c.step(low, lowRate, lowDur)
	results := []stepResult{lowRes}
	maxRPS := 0.0
	if lowRes.ok(c.conns) {
		maxRPS = lowRate
	}
	var high stepResult
	for i, reqs := range ladder {
		r := c.step(reqs, ladderRates[i], stepDur)
		results = append(results, r)
		if ladderRates[i] == highRate {
			high = r
		}
		if !r.ok(c.conns) {
			break
		}
		maxRPS = ladderRates[i]
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	out.rssMB = rss
	var late []float64
	for _, r := range results {
		out.attempted += r.sent
		out.failed += r.fail
		late = append(late, r.late...)
	}
	// The op percentiles are medians over one-second windows of the low
	// rate: a burst of interference from outside the benchmark then moves
	// one window, not the run's figure.
	windows, tracedWindows := map[string][]float64{}, map[string][]float64{}
	for _, r := range low {
		w := fmt.Sprint(int(r.offset / time.Second))
		if r.sent && r.traced {
			tracedWindows[w] = append(tracedWindows[w], ms(r.latency))
		} else if r.sent {
			windows[w] = append(windows[w], ms(r.latency))
			out.samples++
		}
	}
	out.p50, out.p90 = windowPercentile(windows, 50), windowPercentile(windows, 90)
	out.tracedP50 = windowPercentile(tracedWindows, 50)
	addLat := func(name string, xs []float64) {
		e.rep.add("lat_p50_ms."+name, percentile(xs, 50), "ms", len(xs))
		e.rep.add("lat_p99_ms."+name, percentile(xs, 99), "ms", len(xs))
	}
	addLat("low", lowRes.lat)
	byClass := map[string][]float64{}
	for _, r := range low {
		if r.sent {
			byClass[r.key.class] = append(byClass[r.key.class], ms(r.latency))
		}
	}
	for _, class := range []string{"warm", "trials", "nocache", "fresh", "large"} {
		e.rep.add("lat_p50_ms.low."+class, percentile(byClass[class], 50), "ms", len(byClass[class]))
	}
	if high.lat != nil {
		addLat("high", high.lat)
	} else {
		e.rep.note("high rate %d rps not reached: a lower ladder rate failed", highRate)
	}
	e.rep.add("max_rps", maxRPS, "1/s", len(results))
	e.rep.add("gen_late_p99_ms", percentile(late, 99), "ms", len(late))
	for _, r := range results {
		e.rep.note("rate %6.0f rps: sent %5d failed %d skipped %d backlog %d p50 %.3f ms p99 %.3f ms ok=%v",
			r.rate, r.sent, r.fail, r.skipped, r.backlog, percentile(r.lat, 50), percentile(r.lat, 99), r.ok(c.conns))
	}
	if e.trace {
		return out, c.tr.write(e.tracePath("serve"))
	}
	return out, nil
}
