// verdictd — the verification daemon (verification-as-a-service).
//
// Serves verdictc requests over a Unix-domain socket with a content-addressed
// verdict cache in front of the engines: re-verifying an unchanged
// (model, property, engine, depth) request is a hash lookup, identical
// requests in one batch share one solver run, and --segment-file carries
// proven verdicts across daemon restarts and crashes. Protocol and
// cacheability rules: docs/service.md.
//
// Usage:
//   verdictd --socket PATH [options]
//
// Options:
//   --socket PATH       Unix-domain socket to listen on (required)
//   --jobs N            verification worker threads (0 = all hardware threads)
//   --queue-limit N     max admitted-but-unfinished requests; further
//                       requests are rejected immediately (default 64)
//   --cache-capacity N  in-memory verdict cache entries (default 4096)
//   --segment-file FILE mmap'd persistent verdict segment: appended on every
//                       definitive verdict when it is stored, replayed at
//                       startup — verdicts survive a restart or a crash
//   --batch-window MS   coalescing window in milliseconds: requests arriving
//                       within it that share a (model, engine, depth,
//                       deadline-class) fingerprint are verified as ONE
//                       shared session run (default 2; 0 dispatches every
//                       request at once, as a batch of one)
//   --batch-max N       max requests per batch (default 16)
//   --max-message BYTES reject inbound frames larger than this
//                       (default 8 MiB)
//   --trace-out FILE    stream structured events to FILE as NDJSON
//   --quiet             no startup/shutdown banner
//   --version           print version (git SHA, build type, Z3) and exit
//
// SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish in-flight
// verdicts, exit 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "inc/reuse_engine.h"
#include "obs/trace.h"
#include "smt/solver.h"
#include "svc/daemon.h"
#include "svc/pool.h"
#include "util/version.h"

namespace {

verdict::svc::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  // request_stop() is async-signal-safe (one self-pipe write).
  if (g_daemon != nullptr) g_daemon->request_stop();
}

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [options]\n"
               "  --socket PATH       Unix-domain socket to listen on\n"
               "  --jobs N            worker threads (0 = all hardware threads)\n"
               "  --queue-limit N     max in-flight requests before rejecting (64)\n"
               "  --cache-capacity N  in-memory verdict cache entries (4096)\n"
               "  --segment-file FILE mmap'd crash-safe verdict segment\n"
               "  --batch-window MS   session-batching window, ms (2; 0 = batches of one)\n"
               "  --batch-max N       max requests per batch (16)\n"
               "  --max-message BYTES inbound frame payload limit (8388608)\n"
               "  --trace-out FILE    stream structured events as NDJSON\n"
               "  --quiet             no startup/shutdown banner\n"
               "  --version           print version and exit\n",
               argv0);
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace verdict;

  svc::DaemonOptions options;
  options.service.jobs = 0;  // a daemon defaults to every hardware thread
  std::string trace_out;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--socket") {
      options.socket_path = value();
    } else if (arg == "--jobs") {
      options.service.jobs = static_cast<std::size_t>(std::atol(value().c_str()));
    } else if (arg == "--queue-limit") {
      options.service.queue_limit = static_cast<std::size_t>(std::atol(value().c_str()));
    } else if (arg == "--cache-capacity") {
      options.service.cache.capacity = static_cast<std::size_t>(std::atol(value().c_str()));
    } else if (arg == "--segment-file") {
      options.service.segment_file = value();
    } else if (arg == "--batch-window") {
      options.service.batch_window_seconds = std::atof(value().c_str()) / 1000.0;
    } else if (arg == "--batch-max") {
      options.service.batch_max = static_cast<std::size_t>(std::atol(value().c_str()));
    } else if (arg == "--max-message") {
      options.max_message_bytes = static_cast<std::size_t>(std::atol(value().c_str()));
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--version") {
      std::printf("%s\n", util::version_line("verdictd", smt::z3_version()).c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  if (options.socket_path.empty()) usage(argv[0], 2);

  std::unique_ptr<obs::TraceSink> trace_sink;
  if (!trace_out.empty()) {
    try {
      trace_sink = obs::TraceSink::open_file(trace_out);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "verdictd: %s\n", error.what());
      return 2;
    }
    obs::set_sink(trace_sink.get());
  }

  int exit_code = 0;
  try {
    svc::Daemon daemon(options);
    // Incremental re-verification: index whatever the segment replayed
    // (artifacts re-earn trust through revalidation — docs/incremental.md)
    // and serve edited-model requests from prior versions' proofs.
    inc::ReuseEngine reuse(daemon.service().cache());
    const std::size_t reindexed = reuse.rebuild_from_cache();
    daemon.service().set_reuse(&reuse);
    g_daemon = &daemon;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    if (!quiet && reindexed != 0)
      std::printf("verdictd: indexed %zu prior verdict(s) for incremental reuse\n",
                  reindexed);
    if (!quiet)
      std::printf("verdictd: listening on %s (%zu jobs, queue limit %zu)\n",
                  options.socket_path.c_str(),
                  options.service.jobs != 0 ? options.service.jobs
                                            : svc::default_jobs(),
                  options.service.queue_limit);
    std::fflush(stdout);
    daemon.serve();  // returns after SIGTERM + graceful drain
    if (!quiet)
      std::printf("verdictd: drained (%llu connection(s), %llu request(s), "
                  "%llu cache hit(s)); bye\n",
                  static_cast<unsigned long long>(daemon.connections_served()),
                  static_cast<unsigned long long>(daemon.service().requests()),
                  static_cast<unsigned long long>(daemon.service().cache().hits()));
    g_daemon = nullptr;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "verdictd: %s\n", error.what());
    exit_code = 2;
  }

  if (trace_sink) {
    obs::set_sink(nullptr);
    trace_sink->flush();
  }
  return exit_code;
}
