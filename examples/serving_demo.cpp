// Serving demo: a compiled model behind a request API.
//
// Hosts the seeded MLP classifier in the multi-tenant serving runtime
// (src/serve): requests are coalesced by the dynamic batcher into padded
// power-of-two batches, each batch runs through one cached XLA
// executable (compile once at warmup, hit forever after), and overload
// is shed with a clean retryable status instead of unbounded queueing.
//
//   1. Threaded serving: concurrent clients against the real Server —
//      every response is bit-identical to single-sample inference.
//   2. Deterministic overload: the open-loop simulator replays a seeded
//      burst at 3x capacity; its shed/served split and latency
//      percentiles are bit-reproducible on any machine.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "serve/mlp.h"
#include "serve/server.h"
#include "serve/simulator.h"
#include "support/rng.h"

using namespace s4tf;

int main() {
  std::printf("== Multi-tenant serving: dynamic batching over one "
              "compiled executable ==\n\n");

  Rng rng(7);
  const serve::MlpModel model = serve::MlpModel::Create(16, 32, 10, rng);
  serve::XlaServable servable("mlp", model.Fn(), model.sample_shape());
  servable.Warmup();
  std::printf("warmup: compiled %lld executables (padded batch shapes "
              "1, 2, 4, 8)\n\n",
              static_cast<long long>(servable.compiles()));

  // --- 1. Threaded serving with concurrent clients. ---
  serve::BatchingOptions options;
  options.num_workers = 2;
  options.max_batch = 8;
  options.batch_timeout_ns = 100'000;  // 100us coalescing window
  {
    serve::Server server(servable, options);
    constexpr int kClients = 3;
    constexpr int kPerClient = 20;
    std::vector<std::thread> clients;
    std::vector<int> mismatches(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng client_rng(100 + static_cast<std::uint64_t>(c));
        for (int i = 0; i < kPerClient; ++i) {
          std::vector<float> data(16);
          client_rng.FillUniform(data.data(), data.size(), -1.0f, 1.0f);
          const Literal sample =
              Literal::FromVector(model.sample_shape(), std::move(data));
          const auto future = server.Submit(sample);
          if (!future->Wait().ok()) {
            mismatches[static_cast<std::size_t>(c)]++;
            continue;
          }
          // Batched serving must equal single-sample inference, bitwise.
          const Literal expected = model.ReferenceForward(sample);
          const Literal& got = future->output();
          for (std::int64_t k = 0; k < expected.size(); ++k) {
            if (expected.data.data()[k] != got.data.data()[k]) {
              mismatches[static_cast<std::size_t>(c)]++;
              break;
            }
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    server.Shutdown();
    const serve::Server::Stats stats = server.stats();
    int bad = 0;
    for (int m : mismatches) bad += m;
    // Only facts that do not depend on scheduling: how the requests
    // coalesce into batches (and so the cache hits) varies run to run.
    std::printf("threaded: %lld requests -> %lld responses; %d output "
                "mismatches\n",
                static_cast<long long>(stats.submitted),
                static_cast<long long>(stats.responses), bad);
    std::printf("steady-state compiles after warmup: %lld\n\n",
                static_cast<long long>(servable.compiles() - 4));
  }

  // --- 2. Deterministic overload: seeded burst at 3x capacity. ---
  const double capacity_rps = 8.0 / servable.CostSeconds(8);
  serve::ArrivalProcess process;
  process.seed = 42;
  process.num_requests = 256;
  process.mean_interarrival_ns = 1e9 / (3.0 * capacity_rps);
  serve::SimOptions sim;
  sim.batching = options;
  sim.batching.max_queue = 24;
  const serve::SimResult result = serve::SimulateServing(
      servable, serve::GenerateArrivals(process), sim);
  std::printf("simulated overload (3x capacity, queue bound 24):\n");
  std::printf("  served %lld / shed %lld of %d; %lld batches, queue "
              "high-water %lld\n",
              static_cast<long long>(result.completed),
              static_cast<long long>(result.shed), 256,
              static_cast<long long>(result.batches),
              static_cast<long long>(result.max_queue_depth));
  std::printf("  p50 %.3f ms  p99 %.3f ms  throughput %.0f req/s "
              "(logical clock: bit-identical on any machine)\n",
              result.p50_ms, result.p99_ms, result.throughput_rps);
  return 0;
}
