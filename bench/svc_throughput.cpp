// Service-plane throughput — closed-loop load against a live verdictd.
//
// The paper's end state is verification inside the management plane,
// invoked on every config push; what matters there is not one check's
// latency but how many verification requests per second the service plane
// sustains. This bench stands up an in-process svc::Daemon (binary frames,
// batched session dispatch: the production configuration) on a Unix socket
// and drives it with closed-loop clients (every client: send request, wait
// for done, repeat).
//
// The client count is swept and the best sustained QPS is the saturation
// throughput; per-request p50/p99 latency is reported at every point. The
// workload is warm-cache (the same model pushed repeatedly, every verdict
// served from the fingerprint cache) — the deployment-loop steady state.
// Exit code: every served verdict must match the in-process check. The
// throughput figures are reported, not gated; verdict-bench's `svc_mix`
// workload is the end-to-end latency measurement of the daemon.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/checker.h"
#include "mdl/vml.h"
#include "obs/json.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/service.h"

namespace {

using namespace verdict;

// The pushed "config": a model big enough that parsing it is real work,
// which the daemon's model cache amortizes. kModules independent bounded
// counters, followed by two bound properties that k-induction proves
// quickly.
constexpr int kModules = 48;

std::string bench_model() {
  std::string vml;
  for (int i = 0; i < kModules; ++i) {
    const std::string m = "m" + std::to_string(i);
    vml += "module " + m + " {\n";
    vml += "  var c : 0..7;\n";
    vml += "  init c = 0;\n";
    vml += "  rule up when c < 7 { c' = c + 1; }\n";
    vml += "  rule reset when c = 7 { c' = 0; }\n";
    vml += "  stutter always;\n";
    vml += "}\n\n";
  }
  return vml + "system {\n  schedule interleaving;\n" +
         "  ltl head_bounded \"G (m0.c <= 7)\";\n"
         "  ltl tail_bounded \"G (m" + std::to_string(kModules - 1) + ".c <= 7)\";\n}\n";
}

const std::vector<std::string> kProps = {"head_bounded", "tail_bounded"};
constexpr int kDepth = 5;

const svc::ClientOptions kClientOptions{.connect_wait_seconds = 5.0};

// ---------------------------------------------------------------------------
// Closed-loop load generation.
// ---------------------------------------------------------------------------
struct LoadPoint {
  std::size_t clients = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t requests = 0;
  bool verdicts_ok = true;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Every client connects to `socket` and repeats `request(client)` until
// `seconds` pass. `request` returns false on a verdict mismatch.
using Request = std::function<bool(svc::Client&)>;

LoadPoint run_point(const std::string& socket, std::size_t clients, double seconds,
                    const Request& request) {
  using Clock = std::chrono::steady_clock;
  LoadPoint point;
  point.clients = clients;
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<bool> ok{true};
  const Clock::time_point stop_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));

  std::vector<std::thread> threads;
  threads.reserve(clients);
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        svc::Client client(socket, kClientOptions);
        while (Clock::now() < stop_at) {
          const Clock::time_point t0 = Clock::now();
          if (!request(client)) ok.store(false);
          latencies[c].push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "client: %s\n", error.what());
        ok.store(false);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> merged;
  for (const std::vector<double>& per_client : latencies)
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  std::sort(merged.begin(), merged.end());
  point.requests = merged.size();
  point.qps = elapsed > 0 ? static_cast<double>(merged.size()) / elapsed : 0.0;
  point.p50_ms = percentile(merged, 0.50);
  point.p99_ms = percentile(merged, 0.99);
  point.verdicts_ok = ok.load();
  return point;
}

void print_point(const std::string& label, const LoadPoint& point) {
  std::printf("%-8s | %3zu clients | %8.0f QPS | p50 %7.3fms | p99 %7.3fms | %6zu reqs%s\n",
              label.c_str(), point.clients, point.qps, point.p50_ms, point.p99_ms,
              point.requests, point.verdicts_ok ? "" : "  VERDICT MISMATCH");
}

void point_fields(obs::JsonWriter& w, const LoadPoint& point) {
  w.kv("clients", point.clients);
  w.kv("qps", point.qps);
  w.kv("p50_ms", point.p50_ms);
  w.kv("p99_ms", point.p99_ms);
  w.kv("requests", point.requests);
  w.kv("verdicts_ok", point.verdicts_ok);
}

}  // namespace

int main() {
  bench::header("Service-plane throughput — closed-loop load, saturation QPS");

  const std::string model = bench_model();
  std::printf("model: %d modules, %zu bytes of vml; %zu props/request, "
              "k-induction depth %d, warm verdict cache\n",
              kModules, model.size(), kProps.size(), kDepth);

  // Expected verdicts, computed in-process once.
  const mdl::VmlModel parsed = mdl::parse_vml(model);
  std::vector<core::Verdict> expected;
  for (const std::string& prop : kProps)
    expected.push_back(core::check(parsed.system, parsed.ltl_properties.at(prop),
                                   {.engine = core::Engine::kKInduction,
                                    .max_depth = kDepth})
                           .verdict);
  const auto matches = [&](const std::vector<svc::ClientVerdict>& verdicts) {
    if (verdicts.size() != expected.size()) return false;
    for (std::size_t i = 0; i < verdicts.size(); ++i)
      if (verdicts[i].outcome.verdict != expected[i]) return false;
    return true;
  };

  std::vector<std::size_t> client_counts = {4, 16, 32};
  double seconds = 1.5;
  if (bench::smoke()) {
    client_counts = {8};  // CI canary: one concurrency level, short window
    seconds = 0.4;
  } else if (bench::full_sweep()) {
    client_counts = {1, 4, 16, 32, 64};
    seconds = 3.0;
  }

  char sock_dir[] = "/tmp/svc_throughput.XXXXXX";
  if (::mkdtemp(sock_dir) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  bench::JsonRows rows("svc_throughput");
  std::printf("\n%-8s | %11s | %12s | %11s | %11s | %s\n", "server", "load",
              "throughput", "p50", "p99", "volume");

  svc::DaemonOptions options;
  options.socket_path = std::string(sock_dir) + "/verdictd.sock";
  options.service.jobs = 0;
  options.service.batch_max = 32;
  svc::Daemon daemon(options);
  std::thread server_thread([&] { daemon.serve(); });

  // Warm-up: fill the verdict cache (and the daemon's model cache) and
  // confirm the verdicts once before measuring.
  bool verdicts_ok = false;
  try {
    svc::Client client(options.socket_path, kClientOptions);
    verdicts_ok =
        matches(client.check(model, kProps, core::Engine::kKInduction, kDepth, 0.0));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "client: %s\n", error.what());
  }
  double saturation_qps = 0.0;
  for (const std::size_t clients : client_counts) {
    const LoadPoint point =
        run_point(options.socket_path, clients, seconds, [&](svc::Client& client) {
          return matches(client.check(model, kProps, core::Engine::kKInduction, kDepth, 0.0));
        });
    verdicts_ok = verdicts_ok && point.verdicts_ok;
    saturation_qps = std::max(saturation_qps, point.qps);
    print_point("verdictd", point);
    rows.row([&](obs::JsonWriter& w) {
      w.kv("server", "verdictd");
      point_fields(w, point);
    });
  }
  const std::uint64_t batches = daemon.service().batches_formed();
  const std::uint64_t batched = daemon.service().batched_requests();
  daemon.request_stop();
  server_thread.join();
  ::rmdir(sock_dir);

  std::printf("\nsaturation: %.0f QPS\n", saturation_qps);
  std::printf("batches formed: %llu (%.1f requests/batch)\n",
              static_cast<unsigned long long>(batches),
              batches > 0 ? static_cast<double>(batched) / static_cast<double>(batches)
                          : 0.0);
  rows.row([&](obs::JsonWriter& w) {
    w.kv("summary", true);
    w.kv("saturation_qps", saturation_qps);
    w.kv("batches_formed", batches);
    w.kv("verdicts_ok", verdicts_ok);
  });
  if (!verdicts_ok) std::printf("FAILED: verdict mismatch against in-process check\n");
  return verdicts_ok ? 0 : 1;
}
