package ctrl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/policy"
)

// benchLatencies accumulates per-decision latencies across the swarm and
// reports p50/p99 plus decisions/sec.
type benchLatencies struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (l *benchLatencies) add(batch []time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, batch...)
	l.mu.Unlock()
}

func (l *benchLatencies) report(b *testing.B, elapsed time.Duration) {
	if len(l.samples) == 0 {
		return
	}
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
	p := func(q float64) time.Duration {
		i := int(q * float64(len(l.samples)-1))
		return l.samples[i]
	}
	b.ReportMetric(float64(len(l.samples))/elapsed.Seconds(), "decisions/s")
	b.ReportMetric(float64(p(0.50))/1e3, "p50-µs")
	b.ReportMetric(float64(p(0.99))/1e3, "p99-µs")
}

// BenchmarkAltdDecisions is the control-plane throughput bench: a client
// swarm hammers the server with admit/release pairs (model-time
// timestamps, so runs are reproducible) and reports decisions/sec and tail
// latency. The "direct" variant measures the serialized server itself
// (lock → decide → unlock); "http" adds the JSON-over-HTTP wire on a
// loopback httptest server, the shape cmd/altd serves.
func BenchmarkAltdDecisions(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		g := netmodel.Quadrangle()
		pol, err := benchPolicy(g, 85)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := NewServer(Config{Graph: g, Policy: pol})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		defer srv.Shutdown()

		var ids atomic.Int64
		lat := &benchLatencies{}
		b.ResetTimer()
		start := time.Now()
		b.RunParallel(func(pb *testing.PB) {
			local := make([]time.Duration, 0, 1024)
			for pb.Next() {
				id := ids.Add(1)
				o := graph.NodeID(id % 4)
				d := graph.NodeID((id + 1 + id%3) % 4)
				at := float64(id) * 1e-4
				t0 := time.Now()
				dec, err := srv.Admit(id, o, d, at, true)
				local = append(local, time.Since(t0))
				if err != nil {
					b.Errorf("admit %d: %v", id, err)
					return
				}
				if dec.Admitted {
					if err := srv.Release(id, at, true); err != nil {
						b.Errorf("release %d: %v", id, err)
						return
					}
				}
			}
			lat.add(local)
		})
		lat.report(b, time.Since(start))
	})

	b.Run("http", func(b *testing.B) {
		g := netmodel.Quadrangle()
		pol, err := benchPolicy(g, 85)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := NewServer(Config{Graph: g, Policy: pol})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		defer srv.Shutdown()
		ts := httptest.NewServer(srv.Mux())
		defer ts.Close()
		client := ts.Client()

		var ids atomic.Int64
		lat := &benchLatencies{}
		b.ResetTimer()
		start := time.Now()
		b.RunParallel(func(pb *testing.PB) {
			local := make([]time.Duration, 0, 1024)
			for pb.Next() {
				id := ids.Add(1)
				at := float64(id) * 1e-4
				ar := AdmitRequest{ID: id,
					From: fmt.Sprintf("node%d", id%4),
					To:   fmt.Sprintf("node%d", (id+1+id%3)%4),
					At:   &at}
				t0 := time.Now()
				resp, err := benchPost[AdmitResponse](client, ts.URL+"/admit", ar)
				local = append(local, time.Since(t0))
				if err != nil {
					b.Errorf("admit %d: %v", id, err)
					return
				}
				if resp.Admitted {
					if _, err := benchPost[ReleaseResponse](client, ts.URL+"/release",
						ReleaseRequest{ID: id, At: &at}); err != nil {
						b.Errorf("release %d: %v", id, err)
						return
					}
				}
			}
			lat.add(local)
		})
		lat.report(b, time.Since(start))
	})
}

// benchPolicy is quadranglePolicy without the *testing.T plumbing.
func benchPolicy(g *graph.Graph, load float64) (policy.Controlled, error) {
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		return policy.Controlled{}, err
	}
	loads := make([]float64, g.NumLinks())
	for i := range loads {
		loads[i] = load
	}
	return policy.NewControlled(tbl, loads)
}

// benchPost is the bench-side JSON round trip (errors instead of t.Fatal).
func benchPost[T any](client *http.Client, url string, body any) (T, error) {
	var out T
	raw, err := json.Marshal(body)
	if err != nil {
		return out, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return out, nil
}
