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
//
// With `--shards N` the bench instead measures the sharded verdict store
// (docs/sharding.md). The resource sharding multiplies is aggregate cache
// capacity: every shard runs the SAME per-daemon LRU budget, and the working
// set (one bounded-counter property per module, 48 distinct request
// fingerprints) exceeds one shard's budget but fits the cluster's. For S in
// {1, N} the bench stands up S verdictd event loops joined on one
// consistent-hash ring, partitions the properties by ring owner (what
// `verdictc --shard-of` computes for the management plane), and drives each
// shard with closed-loop clients cycling through its partition. A single
// shard thrashes its LRU and re-verifies; the cluster serves warm hits.
// Gate: aggregate warm-hit QPS at N shards >= 1.8x the 1-shard figure, with
// every verdict identical to the in-process check.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/checker.h"
#include "mdl/vml.h"
#include "obs/json.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/fingerprint.h"
#include "svc/ring.h"
#include "svc/service.h"

namespace {

using namespace verdict;

// The pushed "config": a model big enough that parsing it is real work,
// which the daemon's model cache amortizes. kModules independent bounded
// counters, followed by the given `ltl` declarations.
constexpr int kModules = 48;

std::string counters_model(const std::string& ltl_lines) {
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
  return vml + "system {\n  schedule interleaving;\n" + ltl_lines + "}\n";
}

// The throughput workload: two bound properties that k-induction proves
// quickly.
std::string bench_model() {
  return counters_model("  ltl head_bounded \"G (m0.c <= 7)\";\n"
                        "  ltl tail_bounded \"G (m" + std::to_string(kModules - 1) +
                        ".c <= 7)\";\n");
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

// Client c connects to `sockets[c % S]` and repeats `request(client, c, n)`
// (n = that client's request count so far) until `seconds` pass. `request`
// returns false on a verdict mismatch.
using Request = std::function<bool(svc::Client&, std::size_t, std::size_t)>;

LoadPoint run_point(const std::vector<std::string>& sockets, std::size_t clients,
                    double seconds, const Request& request) {
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
        svc::Client client(sockets[c % sockets.size()], kClientOptions);
        for (std::size_t n = 0; Clock::now() < stop_at; ++n) {
          const Clock::time_point t0 = Clock::now();
          if (!request(client, c, n)) ok.store(false);
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

// ---------------------------------------------------------------------------
// Sharded verdict store (`--shards N`): aggregate warm-hit QPS, S in {1, N}.
// ---------------------------------------------------------------------------

// The sharding workload: one LTL property PER module — kModules distinct
// request fingerprints, which is the working set the cluster's aggregate
// cache must hold.
std::string shard_model() {
  std::string ltl_lines;
  for (int i = 0; i < kModules; ++i)
    ltl_lines += "  ltl m" + std::to_string(i) + "_bounded \"G (m" + std::to_string(i) +
                 ".c <= 7)\";\n";
  return counters_model(ltl_lines);
}

// Per-daemon LRU budget for the sharding phases. The working set is kModules
// entries: bigger than one shard's cache, comfortably inside N of them.
constexpr std::size_t kShardCacheCapacity = 32;

// One in-process shard cluster: S daemons joined on the same ring spec, each
// with the SAME cache budget and a zero batch window (every request its own
// batch of one, dispatched at once), so the only thing N shards
// add over 1 is aggregate capacity (plus the peer tier).
class ShardCluster {
 public:
  ShardCluster(const std::string& dir, std::size_t shards) {
    for (std::size_t s = 0; s < shards; ++s)
      sockets_.push_back(dir + "/shard" + std::to_string(s) + ".sock");
    std::string spec;
    for (const std::string& path : sockets_)
      spec += (spec.empty() ? "" : ",") + path;
    for (const std::string& path : sockets_) {
      svc::DaemonOptions options;
      options.socket_path = path;
      options.service.jobs = 0;
      options.service.batch_window_seconds = 0.0;
      options.service.cache.capacity = kShardCacheCapacity;
      options.service.cluster = spec;
      options.service.self_id = path;
      daemons_.push_back(std::make_unique<svc::Daemon>(options));
    }
    for (auto& daemon : daemons_)
      threads_.emplace_back([&daemon] { daemon->serve(); });
  }

  ~ShardCluster() {
    for (auto& daemon : daemons_) daemon->request_stop();
    for (std::thread& t : threads_) t.join();
  }

  [[nodiscard]] const std::vector<std::string>& sockets() const { return sockets_; }

 private:
  std::vector<std::string> sockets_;
  std::vector<std::unique_ptr<svc::Daemon>> daemons_;
  std::vector<std::thread> threads_;
};

// Split the property names by ring owner — the same routing decision
// `verdictc --shard-of` prints for the management plane.
std::vector<std::vector<std::string>> partition_by_ring(
    const mdl::VmlModel& parsed, const std::vector<std::string>& sockets) {
  const svc::Ring ring = svc::Ring::from_nodes(sockets);
  std::vector<std::vector<std::string>> parts(sockets.size());
  for (const auto& [name, property] : parsed.ltl_properties) {
    const svc::Fingerprint fp = svc::fingerprint_request(
        parsed.system, property, core::Engine::kKInduction, kDepth);
    parts[ring.owner(fp)].push_back(name);
  }
  return parts;
}

// Push every shard's partition through it once, so each shard's LRU holds
// exactly the entries it owns before measurement starts.
bool warm_shards(const std::vector<std::string>& sockets, const std::string& model,
                 const std::vector<std::vector<std::string>>& parts,
                 const std::map<std::string, core::Verdict>& expected) {
  for (std::size_t s = 0; s < sockets.size(); ++s) {
    if (parts[s].empty()) continue;
    svc::Client client(sockets[s], kClientOptions);
    const std::vector<svc::ClientVerdict> verdicts =
        client.check(model, parts[s], core::Engine::kKInduction, kDepth, 0.0);
    if (verdicts.size() != parts[s].size()) return false;
    for (std::size_t i = 0; i < verdicts.size(); ++i)
      if (verdicts[i].outcome.verdict != expected.at(parts[s][i])) return false;
  }
  return true;
}


int run_shard_mode(std::size_t shards) {
  bench::header("Sharded verdict store — aggregate warm-hit QPS vs shard count");

  const std::string model = shard_model();
  const mdl::VmlModel parsed = mdl::parse_vml(model);
  std::map<std::string, core::Verdict> expected;
  for (const auto& [name, property] : parsed.ltl_properties)
    expected[name] = core::check(parsed.system, property,
                                 {.engine = core::Engine::kKInduction,
                                  .max_depth = kDepth})
                         .verdict;

  // Fixed offered load: the client count does NOT grow with the shard count.
  std::size_t clients = 8;
  double seconds = 1.5;
  if (bench::smoke()) {
    clients = 4;
    seconds = 0.5;
  } else if (bench::full_sweep()) {
    clients = 16;
    seconds = 3.0;
  }
  std::printf("model: %d modules, %zu props (one per module), per-shard LRU "
              "budget %zu entries;\n%zu clients total, %.1fs per point, "
              "batch window 0\n",
              kModules, expected.size(), kShardCacheCapacity, clients, seconds);
  std::printf("\n%-8s | %11s | %12s | %11s | %11s | %s\n", "shards", "load",
              "throughput", "p50", "p99", "volume");

  char sock_dir[] = "/tmp/svc_shards.XXXXXX";
  if (::mkdtemp(sock_dir) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string dir(sock_dir);
  bench::JsonRows rows("svc_throughput_shards");

  bool verdicts_ok = true;
  double qps_by_count[2] = {0.0, 0.0};
  const std::size_t counts[2] = {1, shards};
  for (int phase = 0; phase < 2; ++phase) {
    const std::size_t s = counts[phase];
    const std::string phase_dir = dir + "/s" + std::to_string(s);
    if (::mkdir(phase_dir.c_str(), 0700) != 0) {
      std::fprintf(stderr, "mkdir %s failed\n", phase_dir.c_str());
      return 1;
    }
    ShardCluster cluster(phase_dir, s);
    const std::vector<std::vector<std::string>> parts =
        partition_by_ring(parsed, cluster.sockets());
    verdicts_ok = warm_shards(cluster.sockets(), model, parts, expected) && verdicts_ok;
    // Client c is pinned to the c-th shard (mod S) that owns any property and
    // cycles through that shard's partition, one property per request.
    std::vector<std::string> sockets;
    std::vector<const std::vector<std::string>*> owned;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].empty()) continue;
      sockets.push_back(cluster.sockets()[i]);
      owned.push_back(&parts[i]);
    }
    const LoadPoint point = run_point(
        sockets, clients, seconds,
        [&](svc::Client& client, std::size_t c, std::size_t n) {
          const std::vector<std::string>& mine = *owned[c % owned.size()];
          // Offset by c / S to desync clients on one shard.
          const std::string& prop = mine[(c / owned.size() + n) % mine.size()];
          const std::vector<svc::ClientVerdict> verdicts =
              client.check(model, {prop}, core::Engine::kKInduction, kDepth, 0.0);
          return verdicts.size() == 1 && verdicts[0].outcome.verdict == expected.at(prop);
        });
    verdicts_ok = verdicts_ok && point.verdicts_ok;
    qps_by_count[phase] = point.qps;
    print_point(std::to_string(s), point);
    rows.row([&](obs::JsonWriter& w) {
      w.kv("shards", s);
      point_fields(w, point);
    });
  }

  const double scaling =
      qps_by_count[0] > 0 ? qps_by_count[1] / qps_by_count[0] : 0.0;
  const bool fast_enough = scaling >= 1.8;
  std::printf("\naggregate warm-hit: 1 shard %.0f QPS (LRU thrash, working set "
              "%zu > budget %zu), %zu shards %.0f QPS (%.2fx, target >= 1.8x)\n",
              qps_by_count[0], expected.size(), kShardCacheCapacity, shards,
              qps_by_count[1], scaling);
  rows.row([&](obs::JsonWriter& w) {
    w.kv("summary", true);
    w.kv("shards", shards);
    w.kv("one_shard_qps", qps_by_count[0]);
    w.kv("sharded_qps", qps_by_count[1]);
    w.kv("scaling", scaling);
    w.kv("verdicts_ok", verdicts_ok);
  });
  if (!verdicts_ok) std::printf("FAILED: verdict mismatch against in-process check\n");
  if (!fast_enough)
    std::printf("FAILED: %zu-shard aggregate QPS below 1.8x the single-shard figure\n",
                shards);
  for (const std::string& sub : {std::string("/s1"), "/s" + std::to_string(shards)})
    ::rmdir((dir + sub).c_str());
  ::rmdir(sock_dir);
  return verdicts_ok && fast_enough ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shards = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::atol(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--shards N]\n", argv[0]);
      return 1;
    }
  }
  if (shards > 1) return run_shard_mode(shards);

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
    const LoadPoint point = run_point(
        {options.socket_path}, clients, seconds,
        [&](svc::Client& client, std::size_t, std::size_t) {
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
