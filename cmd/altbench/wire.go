package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ctrl"
	"repro/internal/graph"
	"repro/internal/netio"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The altd-wire schedule, in shares of -seconds: a low and a high fixed
// rate (3/15 and 6/15), then a bisection for the highest rate whose admit
// p99 stays within the limit without a growing backlog (6 steps of 1/15).
const (
	wireLimitMs  = 5.0
	wireLowRate  = 2000.0
	wireHighRate = 8000.0
	wireTopRate  = 24000.0 // upper bracket of the bisection
	bisectSteps  = 6
	// A step whose generator runs this far behind schedule has failed;
	// it stops sending instead of running on past its length.
	abortLate = time.Second
)

// wireCase is the scenario altd serves: NSFNet with its nominal matrix, as
// netio writes it.
type wireCase struct {
	bin      string
	scenario string
	g        *graph.Graph
	m        *traffic.Matrix
}

func setupWire(altd string) (*wireCase, error) {
	if _, err := os.Stat(altd); err != nil {
		return nil, fmt.Errorf("altd binary: %w (run.sh builds it)", err)
	}
	g, m, err := nsfnet()
	if err != nil {
		return nil, err
	}
	sc, err := netio.FromNetwork("nsfnet", g, m, nsfnetH)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(filepath.Dir(altd), "altbench-nsfnet.json")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := sc.Write(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &wireCase{bin: altd, scenario: path, g: g, m: m}, nil
}

// daemon is one running altd process.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	ready    time.Duration // exec to the first 200 from /status
	readyCPU time.Duration // the daemon's CPU time by then
	drained  chan struct{} // closed when its stderr reaches EOF
}

func startDaemon(c *wireCase, timescale float64) (*daemon, error) {
	cmd := exec.Command(c.bin, "-scenario", c.scenario, "-addr", "127.0.0.1:0",
		"-timescale", strconv.FormatFloat(timescale, 'g', -1, 64))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(pipe)
	const marker = "serving control API on http://"
	for d.base == "" {
		line, err := br.ReadString('\n')
		if i := strings.Index(line, marker); i >= 0 {
			if f := strings.Fields(line[i+len(marker):]); len(f) > 0 {
				d.base = "http://" + f[0]
			}
		}
		if d.base == "" && err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("altd exited before serving: %q", line)
		}
	}
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(d.drained)
	}()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(d.base + "/status")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("altd not ready after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.ready = time.Since(t0)
	if d.readyCPU, err = taskCPU(cmd.Process.Pid); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) status() (ctrl.Status, error) {
	var st ctrl.Status
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(d.base + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (d *daemon) rssMB() (float64, error) { return vmHWM(strconv.Itoa(d.cmd.Process.Pid)) }

// cpuSeconds reads the daemon's user plus system CPU time from
// /proc/<pid>/stat, in the kernel's fixed 100 Hz units.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the line.
	end := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[end+1:]))
	if end < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	utime, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// stop drains the daemon gracefully and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	<-d.drained
	return d.cmd.Wait()
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.drained
	_ = d.cmd.Wait()
}

// sleepUntil blocks the calling thread until t. The runtime's timers can
// wake a millisecond late, which would show as latency measured from the
// due time; a nanosleep on the thread wakes within the kernel's timer
// slack (~50 µs) and, unlike spinning, leaves the cores to the daemon.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: sleep the rest
	}
}

// Per-call admit outcomes, shared by the senders: a release goes out only
// for an admitted call.
const (
	pending int32 = iota
	admitted
	refused // blocked, failed or never sent
)

// lateSample is how late one request left, by its due offset.
type lateSample struct {
	due  time.Duration
	late float64 // ms
}

// senderStats is one connection's tally, merged after the step.
type senderStats struct {
	latMs, rttUs []float64 // admits: from due, from send
	late         []lateSample
	sent, failed int
	admitsOK     int
	admitted     int
	releasesOK   int
}

// wireStep is one open-loop step at a fixed scheduled rate on a fresh
// daemon.
type wireStep struct {
	cpuS      float64 // the daemon's CPU seconds while the step ran
	factor    float64 // the host factor measured after the step
	d         *daemon
	evs       []event
	dues      []time.Duration
	admits    [][]byte
	releases  [][]byte
	outcome   []atomic.Int32
	start     time.Time
	next      atomic.Int64
	aborted   atomic.Bool
	tr        *tracer
	lAdmit    *layer
	lRelease  *layer
	stepStats senderStats
	status    ctrl.Status
	rss       float64
	backlog   bool
}

// newWireStep generates the step's schedule: the time-ordered admits and
// releases of an NSFNet trace, model time mapped to wall time so the
// schedule carries rate requests per second (two per call).
func newWireStep(c *wireCase, rate float64, dur time.Duration, seed int64) (*wireStep, float64) {
	timescale := rate / (2 * c.m.Total())
	trace := sim.GenerateTrace(c.m, dur.Seconds()*timescale+2, seed)
	s := &wireStep{}
	for _, ev := range callEvents(trace.Calls) {
		due := time.Duration(ev.at / timescale * 1e9)
		if due >= dur {
			break
		}
		s.evs = append(s.evs, ev)
		s.dues = append(s.dues, due)
	}
	s.admits = make([][]byte, len(trace.Calls))
	s.releases = make([][]byte, len(trace.Calls))
	for i, call := range trace.Calls {
		s.admits[i] = admitBody(c.g, int64(i), call)
		s.releases[i] = releaseBody(int64(i))
	}
	s.outcome = make([]atomic.Int32, len(trace.Calls))
	return s, timescale
}

// run sends the schedule over one keep-alive connection per core.
func (s *wireStep) run() {
	conns := runtime.NumCPU()
	stats := make([]senderStats, conns)
	var wg sync.WaitGroup
	s.start = time.Now().Add(20 * time.Millisecond)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(out *senderStats) {
			defer wg.Done()
			s.send(out)
		}(&stats[k])
	}
	wg.Wait()
	for _, st := range stats {
		t := &s.stepStats
		t.latMs = append(t.latMs, st.latMs...)
		t.rttUs = append(t.rttUs, st.rttUs...)
		t.late = append(t.late, st.late...)
		t.sent += st.sent
		t.failed += st.failed
		t.admitsOK += st.admitsOK
		t.admitted += st.admitted
		t.releasesOK += st.releasesOK
	}
	sort.Float64s(s.stepStats.latMs)
	sort.Float64s(s.stepStats.rttUs)
	s.backlog = s.aborted.Load() || rising(s.stepStats.late, s.dues[len(s.dues)-1])
}

// send claims the next due event, waits for its time and sends it.
func (s *wireStep) send(out *senderStats) {
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	admitURL, releaseURL := s.d.base+"/admit", s.d.base+"/release"
	var buf bytes.Buffer
	for {
		i := int(s.next.Add(1)) - 1
		if i >= len(s.evs) {
			return
		}
		ev, due := s.evs[i], s.start.Add(s.dues[i])
		if s.aborted.Load() || time.Since(due) > abortLate {
			s.aborted.Store(true)
			if !ev.release {
				s.outcome[ev.call].Store(refused)
			}
			continue
		}
		sleepUntil(due)
		url, body, l := admitURL, s.admits[ev.call], s.lAdmit
		if ev.release {
			st := s.outcome[ev.call].Load()
			for ; st == pending; st = s.outcome[ev.call].Load() {
				runtime.Gosched() // the admit is still in flight on the other connection
			}
			if st != admitted {
				continue
			}
			url, body, l = releaseURL, s.releases[ev.call], s.lRelease
		}
		sp := s.tr.begin(l, -1, int64(ev.call))
		sent := time.Now()
		code, err := post(client, url, body, &buf)
		done := time.Now()
		s.tr.end(sp)
		out.sent++
		out.late = append(out.late, lateSample{s.dues[i], float64(sent.Sub(due)) / 1e6})
		var resp ctrl.AdmitResponse
		if err == nil && code == http.StatusOK && !ev.release {
			err = json.Unmarshal(buf.Bytes(), &resp)
		}
		if err != nil || code != http.StatusOK {
			out.failed++
			if !ev.release {
				s.outcome[ev.call].Store(refused)
			}
			continue
		}
		if ev.release {
			out.releasesOK++
			continue
		}
		out.admitsOK++
		out.latMs = append(out.latMs, float64(done.Sub(due))/1e6)
		out.rttUs = append(out.rttUs, float64(done.Sub(sent))/1e3)
		if resp.Admitted {
			out.admitted++
			s.outcome[ev.call].Store(admitted)
		} else {
			s.outcome[ev.call].Store(refused)
		}
	}
}

func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// rising reports a growing backlog: the generator's median lateness over
// the step's last quarter exceeds that of the quarter before by more than
// a millisecond.
func rising(late []lateSample, end time.Duration) bool {
	var prev, last []float64
	for _, l := range late {
		switch {
		case l.due >= end*3/4:
			last = append(last, l.late)
		case l.due >= end/2:
			prev = append(prev, l.late)
		}
	}
	if len(prev) == 0 || len(last) == 0 {
		return false
	}
	return median(last) > median(prev)+1
}

func (s *wireStep) p(q float64) float64 { return percentile(s.stepStats.latMs, q) }

// perCPUSecond is the requests answered per CPU-second of the daemon.
func (s *wireStep) perCPUSecond() float64 {
	return float64(s.stepStats.sent-s.stepStats.failed) / s.cpuS
}

func (s *wireStep) meetsLimit() bool {
	return s.stepStats.failed == 0 && !s.backlog && len(s.stepStats.latMs) > 0 && s.p(0.99) <= wireLimitMs
}

// runStep runs one step on a fresh daemon and checks the daemon's own
// accounting against what was sent.
func runStep(c *wireCase, r *result, rate float64, dur time.Duration, seed int64, tr *tracer, log io.Writer) (*wireStep, error) {
	s, timescale := newWireStep(c, rate, dur, seed)
	if len(s.evs) == 0 {
		return nil, fmt.Errorf("empty schedule at %.0f req/s over %v", rate, dur)
	}
	d, err := startDaemon(c, timescale)
	if err != nil {
		return nil, err
	}
	s.d, s.tr = d, tr
	s.lAdmit, s.lRelease = tr.layer("altd POST /admit"), tr.layer("altd POST /release")
	cpu0, err := d.cpuSeconds()
	if err != nil {
		d.kill()
		return nil, err
	}
	s.run()
	cpu1, err := d.cpuSeconds()
	s.cpuS = cpu1 - cpu0
	if err == nil {
		s.status, err = d.status()
	}
	if err == nil {
		s.rss, err = d.rssMB()
	}
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("altd shutdown: %w", err)
	}
	st, t := s.status.Metrics, s.stepStats
	var bad []string
	expect := func(what string, got, want uint64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s %d, want %d", what, got, want))
		}
	}
	expect("offered", st.Offered, uint64(t.admitsOK))
	expect("admitted+blocked", st.Admitted+st.Blocked, st.Offered)
	expect("admitted", st.Admitted, uint64(t.admitted))
	expect("released", st.Released, uint64(t.releasesOK))
	expect("in_flight", uint64(st.InFlight), st.Admitted-st.Released)
	expect("duplicate_admits", st.DuplicateAdmits, 0)
	expect("unknown_releases", st.UnknownReleases, 0)
	expect("release_idle", st.ReleaseIdle, 0)
	expect("estimator_regressions", s.status.Regressions, 0)
	r.check(fmt.Sprintf("altd /status accounting at %.0f req/s", rate), len(bad) == 0, "%s", strings.Join(bad, "; "))
	r.Attempted += t.sent
	r.Failed += t.failed
	fmt.Fprintf(log, "altbench: altd-wire %6.0f req/s: %d sent, p50 %.3f ms, p99 %.3f ms, backlog %v, %.0f per CPU-second\n",
		rate, t.sent, s.p(0.5), s.p(0.99), s.backlog, s.perCPUSecond())
	return s, nil
}

func runWire(e *env) (*result, error) {
	r := &result{Workload: "altd-wire"}
	c, err := setupWire(e.altd)
	if err != nil {
		return nil, err
	}
	share := func(num, den float64) time.Duration {
		return time.Duration(e.seconds * num / den * float64(time.Second))
	}
	var readies, readyCPUs, readyWalls []float64
	step := func(rate float64, dur time.Duration, tr *tracer) (*wireStep, error) {
		s, err := runStep(c, r, rate, dur, e.seed, tr, e.stderr)
		if err != nil {
			return nil, err
		}
		s.factor = e.ref.factor()
		readies = append(readies, s.d.readyCPU.Seconds()/s.factor)
		readyCPUs = append(readyCPUs, s.d.readyCPU.Seconds())
		readyWalls = append(readyWalls, s.d.ready.Seconds())
		return s, nil
	}

	if e.tr != nil {
		return tracedWire(e, r, c, step, share(1, 2))
	}
	low, err := step(wireLowRate, share(3, 15), nil)
	if err != nil {
		return nil, err
	}
	high, err := step(wireHighRate, share(6, 15), nil)
	if err != nil {
		return nil, err
	}
	lo, hi := wireHighRate, wireTopRate
	switch {
	case !low.meetsLimit():
		lo, hi = 0, wireLowRate
	case !high.meetsLimit():
		lo, hi = wireLowRate, wireHighRate
	}
	for k := 0; k < bisectSteps; k++ {
		mid := (lo + hi) / 2
		s, err := step(mid, share(1, 15), nil)
		if err != nil {
			return nil, err
		}
		if s.meetsLimit() {
			lo = mid
		} else {
			hi = mid
		}
	}
	r.E2E = append(r.E2E,
		newMetric("setup_s", "s", readies...),
		newMetric("peak_rss_mb", "MB", high.rss),
		// Not divided by the host factor: the daemon's CPU per request is
		// mostly the kernel's loopback networking, which slowed with the
		// factor at a slope of only ~0.3 (see README.md).
		newMetric("ops_per_s", "1/s", high.perCPUSecond()))
	r.Detail = append(r.Detail,
		newMetric("setup_cpu_s", "s", readyCPUs...),
		newMetric("setup_wall_s", "s", readyWalls...),
		newMetric("host_factor", "ratio", high.factor),
		newMetric("p50_ms.r2k", "ms", low.p(0.5)),
		newMetric("p99_ms.r2k", "ms", low.p(0.99)),
		newMetric("admits.r2k", "count", float64(len(low.stepStats.latMs))),
		newMetric("p50_ms.r8k", "ms", high.p(0.5)),
		newMetric("p99_ms.r8k", "ms", high.p(0.99)),
		newMetric("admits.r8k", "count", float64(len(high.stepStats.latMs))),
		newMetric("max_rate_rps", "1/s", lo),
		newMetric("gen.late_p99_ms.r8k", "ms", high.lateP99()),
		newMetric("error_ratio", "ratio", float64(r.Failed)/float64(max(1, r.Attempted))))
	return r, nil
}

// lateP99 is the generator's 99th-percentile lateness over the step.
func (s *wireStep) lateP99() float64 {
	late := make([]float64, 0, len(s.stepStats.late))
	for _, l := range s.stepStats.late {
		late = append(late, l.late)
	}
	sort.Float64s(late)
	return percentile(late, 0.99)
}

// tracedWire runs the 8,000 req/s step untraced and traced (the overhead
// ratio), then times the control plane's layers in process on the same
// scenario.
func tracedWire(e *env, r *result, c *wireCase, step func(float64, time.Duration, *tracer) (*wireStep, error), dur time.Duration) (*result, error) {
	vals := map[string]float64{"trace.clock_ns": e.tr.clockCost()}
	plain, err := step(wireHighRate, dur, nil)
	if err != nil {
		return nil, err
	}
	traced, err := step(wireHighRate, dur, e.tr)
	if err != nil {
		return nil, err
	}
	vals["trace.overhead_ratio"] = traced.p(0.5) / plain.p(0.5)
	vals["gen.late_p99_ms"] = plain.lateP99()
	vals["altd.refreshes"] = float64(plain.status.Refreshes)
	vals["altd.recompiles"] = float64(plain.status.Metrics.Recompiles)
	err = probeScenario(e.tr, vals, probeCase{g: c.g, m: c.m, h: nsfnetH, trace: sim.GenerateTrace(c.m, sweepHorizon, e.seed), seed: e.seed})
	if err != nil {
		return nil, err
	}
	vals["net.loopback.us"] = percentile(traced.stepStats.rttUs, 0.5) - vals["ctrl.handler.us"]
	r.setLayers(vals)
	return r, nil
}
