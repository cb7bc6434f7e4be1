package ivory

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ivory/internal/server"
)

// Cluster-mode throughput harness: the same full exhaustive sweep pushed
// through one worker replica directly versus a coordinator fanning it out
// to two replicas. Each replica is pinned to one pool slot and one engine
// worker, so the pair has 2x the compute of the single-node baseline. It
// does not deliver 2x the throughput: the coordinator's shard HTTP and
// JSON cost more than the second worker saves, so the cluster is still
// slower than one node. The adaptive pair sends the same spec with
// "search":"adaptive"; a coordinator runs adaptive searches itself, so
// its 2-worker figure should match one node. Medians of
// `go test -run '^$' -bench 'ExploreCluster' -count=5 .` on a 2-vCPU
// Intel Xeon VM (go1.24): SingleNode 5.3 ms/op, 2Workers 13.6 ms/op
// (~0.39x as fast); AdaptiveSingleNode 0.92 ms/op, Adaptive2Workers
// 0.93 ms/op. perfbench's cluster workload measures the exhaustive gap
// end to end (cluster.speedup ~0.24 against an in-process 2-worker
// explore).
const clusterBenchBody = `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"top":1}`

// clusterBenchAdaptiveBody is the same spec under the adaptive search.
const clusterBenchAdaptiveBody = `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2,"search":"adaptive"},"top":1}`

// bootBenchWorker starts one single-slot worker replica with caching off,
// so every iteration recomputes instead of replaying the LRU.
func bootBenchWorker(b *testing.B) *httptest.Server {
	s := server.New(server.Config{Workers: 1, QueueDepth: 64, EngineWorkers: 1, CacheEntries: -1, Role: "worker"})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return ts
}

// bootBenchCoordinator starts a single-slot coordinator, caching off, in
// front of two bench workers.
func bootBenchCoordinator(b *testing.B) *httptest.Server {
	w1, w2 := bootBenchWorker(b), bootBenchWorker(b)
	coord := server.New(server.Config{
		Workers: 1, QueueDepth: 64, EngineWorkers: 1, CacheEntries: -1,
		Cluster: &server.ClusterConfig{Workers: []string{w1.URL, w2.URL}},
	})
	ts := httptest.NewServer(coord.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	return ts
}

func exploreOverHTTP(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("explore: %d", resp.StatusCode)
	}
}

func benchExploreOverHTTP(b *testing.B, ts *httptest.Server, body string) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exploreOverHTTP(b, ts.URL, body)
	}
}

func BenchmarkExploreClusterSingleNode(b *testing.B) {
	benchExploreOverHTTP(b, bootBenchWorker(b), clusterBenchBody)
}

func BenchmarkExploreCluster2Workers(b *testing.B) {
	benchExploreOverHTTP(b, bootBenchCoordinator(b), clusterBenchBody)
}

func BenchmarkExploreClusterAdaptiveSingleNode(b *testing.B) {
	benchExploreOverHTTP(b, bootBenchWorker(b), clusterBenchAdaptiveBody)
}

func BenchmarkExploreClusterAdaptive2Workers(b *testing.B) {
	benchExploreOverHTTP(b, bootBenchCoordinator(b), clusterBenchAdaptiveBody)
}
