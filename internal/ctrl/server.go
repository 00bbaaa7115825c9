package ctrl

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrShutdown is returned for requests made before Start or after
// Shutdown.
var ErrShutdown = errors.New("ctrl: server shutting down")

// Config assembles a Server. Graph and Policy are required; everything
// else defaults.
type Config struct {
	Graph *graph.Graph
	// State is the live network state; nil starts all-idle.
	State *sim.State
	// Policy must compile (sim.TableCompiler); policy.Dynamic under a
	// core scheme is the expected shape.
	Policy sim.TableCompiler
	// Estimator, when set, observes every primary set-up and drives the
	// estimate-epoch rederivations; nil disables estimation (the replay-
	// equivalence configuration).
	Estimator *estimate.Estimator
	// Adapt, when set, re-derives protection levels at estimate epochs
	// (RederiveFromLoads) and at topology epochs (the failure-epoch hook).
	// Without it, topology changes still rebuild thresholds against the
	// same protection levels.
	Adapt *core.AdaptiveScheme
	// RefreshEvery is the estimate-epoch period in model time units
	// (default: the estimator's window; ignored without an estimator).
	RefreshEvery float64
	// Clock supplies the decision timestamp for requests that carry none.
	// It is injected (cmd/altd maps the wall clock to model time) so this
	// package never touches a nondeterministic clock itself; nil falls
	// back to the largest timestamp seen so far.
	Clock func() float64
	// Sink receives the decision event stream (obs.Registry, JSONL,
	// timeseries — typically an obs.Multi). Nil disables emission.
	Sink obs.Sink
}

// Server serializes admission control under one mutex: every request —
// from an HTTP handler, the daemon's tick or the bench swarm — takes the
// lock and is decided on the caller's goroutine, one at a time, so
// sim.State is only ever touched by the lock holder and decisions are
// identical to a sequential replay in lock order, whatever the client
// concurrency. The injected Clock and Sink run under the lock, so they
// must not call back into the Server.
type Server struct {
	eng  *Engine
	est  *estimate.Estimator
	adpt *core.AdaptiveScheme
	hook func(float64, *sim.State) // failure-epoch rederive, may be nil

	// nodes resolves wire node names (first node of each name wins);
	// read-only after NewServer, so handlers read it without the lock.
	nodes map[string]graph.NodeID

	clock        func() float64
	refreshEvery float64
	sink         obs.Sink

	// mu serializes every decision: the engine, the estimator, the
	// adaptive scheme and the fields below are touched only under it.
	mu          sync.Mutex
	started     bool // Start ran
	closed      bool // Shutdown ran; a later Start does not reopen
	nextRefresh float64
	refreshes   uint64
	now         float64   // high-water decision timestamp
	ev          obs.Event // the one reusable decision event
}

// request is one decision to make.
type request struct {
	kind  reqKind
	at    float64
	hasAt bool
	admit struct {
		id           int64
		origin, dest graph.NodeID
	}
	release int64
	topo    struct {
		link graph.LinkID
		down bool
	}
}

type reqKind uint8

const (
	reqAdmit reqKind = iota
	reqRelease
	reqTopology
	reqStatus
	reqTick
)

// reply carries a decision (or error) plus the status snapshot for
// reqStatus.
type reply struct {
	dec    Decision
	status Status
	err    error
}

// Status is the server's introspection snapshot.
type Status struct {
	Metrics     Metrics   `json:"metrics"`
	Refreshes   uint64    `json:"refreshes"`
	Regressions uint64    `json:"estimator_regressions"`
	Now         float64   `json:"now"`
	Occupancy   int       `json:"total_occupancy"`
	Compiled    bool      `json:"compiled"`
	Protection  []int     `json:"protection,omitempty"`
	Estimates   []float64 `json:"estimates,omitempty"`
}

// NewServer builds the server and its engine; Start opens it for
// requests.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Graph == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("ctrl: config needs Graph and Policy")
	}
	eng, err := NewEngine(cfg.Graph, cfg.State, cfg.Policy, cfg.Estimator)
	if err != nil {
		return nil, err
	}
	refresh := cfg.RefreshEvery
	if refresh <= 0 && cfg.Estimator != nil {
		refresh = cfg.Estimator.Window
	}
	s := &Server{
		eng:          eng,
		est:          cfg.Estimator,
		adpt:         cfg.Adapt,
		clock:        cfg.Clock,
		refreshEvery: refresh,
		nextRefresh:  refresh,
		sink:         cfg.Sink,
		nodes:        make(map[string]graph.NodeID, cfg.Graph.NumNodes()),
	}
	for i := cfg.Graph.NumNodes() - 1; i >= 0; i-- {
		s.nodes[cfg.Graph.NodeName(graph.NodeID(i))] = graph.NodeID(i)
	}
	if s.adpt != nil {
		s.hook = s.adpt.Hook()
	}
	return s, nil
}

// Engine exposes the decision engine for offline cross-checks (only safe
// before Start or after Shutdown).
func (s *Server) Engine() *Engine { return s.eng }

// Start opens the server for requests.
func (s *Server) Start() {
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
}

// Shutdown closes the server: a decision that holds the lock finishes and
// is answered, and every later request gets ErrShutdown. Once it returns
// no more events are emitted, so flushing sinks (JSONL) is safe.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// stamp resolves a request's decision timestamp and advances the server's
// model clock high-water mark.
func (s *Server) stamp(r request) float64 {
	at := r.at
	if !r.hasAt {
		if s.clock != nil {
			at = s.clock()
		} else {
			at = s.now
		}
	}
	if at > s.now {
		s.now = at
	}
	return at
}

// handle decides one request; the caller holds s.mu. With a sink
// attached, each event is filled into the server's one reusable event and
// emitted; without one, nothing is filled.
func (s *Server) handle(r request) reply {
	var rep reply
	instrumented := s.sink != nil
	switch r.kind {
	case reqAdmit:
		at := s.stamp(r)
		s.maybeRefresh(at)
		if instrumented {
			ev := s.ev.Reset(obs.KindCallOffered, at)
			ev.Call, ev.Origin, ev.Dest, ev.Measured = int(r.admit.id), int(r.admit.origin), int(r.admit.dest), true
			obs.Emit(s.sink, ev)
		}
		dec, err := s.eng.Admit(at, r.admit.id, r.admit.origin, r.admit.dest)
		rep.dec, rep.err = dec, err
		if err == nil && instrumented {
			ev := &s.ev
			if dec.Admitted {
				ev.Reset(obs.KindCallAdmitted, at)
				ev.Hops, ev.Alternate = len(dec.Links), dec.Alternate
			} else {
				ev.Reset(obs.KindCallBlocked, at)
				ev.Link = int(dec.BlockedAt)
			}
			ev.Call, ev.Origin, ev.Dest, ev.Measured = int(dec.CallID), int(r.admit.origin), int(r.admit.dest), true
			obs.Emit(s.sink, ev)
		}
	case reqRelease:
		at := s.stamp(r)
		hops := 0
		if instrumented {
			hops = s.eng.hops(r.release)
		}
		rep.err = s.eng.Release(r.release)
		if rep.err == nil && instrumented {
			ev := s.ev.Reset(obs.KindCallDeparted, at)
			ev.Call, ev.Hops, ev.Measured = int(r.release), hops, true
			obs.Emit(s.sink, ev)
		}
	case reqTopology:
		at := s.stamp(r)
		kind := obs.KindLinkDown
		occ := s.eng.State().Occupancy(r.topo.link)
		if !r.topo.down {
			kind, occ = obs.KindLinkUp, 0
		}
		s.eng.State().SetLinkDown(r.topo.link, r.topo.down)
		if s.hook != nil {
			// Failure-epoch rederivation, exactly as the simulation
			// engines run it before recompiling.
			s.hook(at, s.eng.State())
		}
		s.eng.Recompile()
		if instrumented {
			ev := s.ev.Reset(kind, at)
			ev.Link, ev.Occupancy = int(r.topo.link), occ
			obs.Emit(s.sink, ev)
		}
	case reqStatus:
		rep.status = s.statusLocked()
	case reqTick:
		at := s.stamp(r)
		if s.est != nil {
			s.est.Advance(at)
		}
		s.maybeRefresh(at)
	}
	return rep
}

// maybeRefresh runs due estimate epochs: fold the estimator's windows,
// re-derive protection levels from the current Λ̂ through the shared
// Erlang cache, and rebuild the thresholds. Without an estimator (or past
// a non-finite timestamp) it is a no-op.
func (s *Server) maybeRefresh(now float64) {
	if s.est == nil || s.refreshEvery <= 0 || now < s.nextRefresh || math.IsNaN(now) {
		return
	}
	s.est.Advance(now)
	if s.adpt != nil {
		s.adpt.RederiveFromLoads(s.eng.State(), s.est.Estimates())
	}
	s.eng.Recompile()
	s.refreshes++
	for steps := 0; now >= s.nextRefresh; steps++ {
		if steps >= 1<<16 {
			s.nextRefresh = now + s.refreshEvery
			break
		}
		s.nextRefresh += s.refreshEvery
	}
}

// statusLocked snapshots the server; the caller holds s.mu.
func (s *Server) statusLocked() Status {
	st := Status{
		Metrics:   s.eng.Metrics(),
		Refreshes: s.refreshes,
		Now:       s.now,
		Occupancy: s.eng.State().TotalOccupancy(),
		Compiled:  s.eng.compiled,
	}
	if s.est != nil {
		st.Regressions = s.est.Regressions()
		st.Estimates = s.est.Estimates()
	}
	if p, ok := s.eng.tc.(interface{ Protection() []int }); ok {
		st.Protection = p.Protection()
	}
	return st
}

// do decides one request under the lock; ErrShutdown before Start or
// after Shutdown.
func (s *Server) do(r request) (reply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed {
		return reply{}, ErrShutdown
	}
	rep := s.handle(r)
	return rep, rep.err
}

// Admit requests one admission decision. hasAt=false stamps the request
// with the injected clock.
func (s *Server) Admit(id int64, origin, dest graph.NodeID, at float64, hasAt bool) (Decision, error) {
	r := request{kind: reqAdmit, at: at, hasAt: hasAt}
	r.admit.id, r.admit.origin, r.admit.dest = id, origin, dest
	rep, err := s.do(r)
	return rep.dec, err
}

// Release requests one release.
func (s *Server) Release(id int64, at float64, hasAt bool) error {
	_, err := s.do(request{kind: reqRelease, release: id, at: at, hasAt: hasAt})
	return err
}

// Topology applies a link-down/up notification.
func (s *Server) Topology(link graph.LinkID, down bool, at float64, hasAt bool) error {
	_, err := s.do(request{kind: reqTopology, topo: struct {
		link graph.LinkID
		down bool
	}{link, down}, at: at, hasAt: hasAt})
	return err
}

// Status snapshots the server.
func (s *Server) Status() (Status, error) {
	rep, err := s.do(request{kind: reqStatus})
	return rep.status, err
}

// Tick advances the estimator clock (the daemon's periodic tick).
func (s *Server) Tick(at float64, hasAt bool) error {
	_, err := s.do(request{kind: reqTick, at: at, hasAt: hasAt})
	return err
}
