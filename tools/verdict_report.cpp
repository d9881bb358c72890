// verdict-report — turns the machine-readable outputs of a verdictc run
// (--trace-out NDJSON event stream, --stats-json verdict-stats-v1 document)
// into a human-readable run report: per-engine time breakdown, portfolio
// winner rationale, per-property verdict table, counter snapshot.
//
// Usage:
//   verdict-report [--stats FILE] [--trace FILE] [--check]
//
//   --stats FILE   verdict-stats-v1 document (verdictc --stats-json)
//   --trace FILE   NDJSON event stream (verdictc --trace-out)
//   --check        validate only: parse both files, enforce the documented
//                  schema, print nothing on success
//
// FILE may be `-` to read from stdin (one of --stats/--trace, not both), so
// the tool composes in pipelines:
//
//   verdictc model.vml --stats-json /dev/stdout --quiet | verdict-report --stats -
//
// At least one of --stats/--trace is required. Exit codes: 0 inputs parse
// and conform, 1 malformed input or schema violation, 2 usage error.
//
// The --check mode doubles as the JSON-aware validator used by
// tests/verdictc_cli_test.sh: a --stats-json file that drifts from
// docs/observability.md fails the CLI test, not just a human reader.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using verdict::obs::JsonValue;
using verdict::obs::parse_json;

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--stats FILE] [--trace FILE] [--check]\n"
               "  --stats FILE  verdict-stats-v1 document (verdictc --stats-json)\n"
               "  --trace FILE  NDJSON event stream (verdictc --trace-out)\n"
               "  --check       validate only; print nothing on success\n"
               "FILE may be '-' to read from stdin (at most one input).\n",
               argv0);
  std::exit(code);
}

std::string read_file(const std::string& path) {
  if (path == "-") {  // stdin; can only be consumed once (enforced in main)
    std::ostringstream os;
    os << std::cin.rdbuf();
    return os.str();
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- verdict-stats-v1 validation --------------------------------------------

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("schema violation: " + what);
}

void validate_stats_block(const JsonValue& stats, const std::string& where) {
  require(stats.is_object(), where + ".stats must be an object");
  require(stats["engine"].is_string(), where + ".stats.engine must be a string");
  require(stats["seconds"].is_number(), where + ".stats.seconds must be a number");
  require(stats["solver_seconds"].is_number(),
          where + ".stats.solver_seconds must be a number");
  require(stats["solver_checks"].is_number(),
          where + ".stats.solver_checks must be a number");
  require(stats["depth_reached"].is_number(),
          where + ".stats.depth_reached must be a number");
  require(stats["solvers_created"].is_number(),
          where + ".stats.solvers_created must be a number");
  require(stats["frame_assertions"].is_number(),
          where + ".stats.frame_assertions must be a number");
}

void validate_trace_block(const JsonValue& trace, const std::string& where) {
  require(trace.is_object(), where + " must be an object");
  require(trace["length"].is_number(), where + ".length must be a number");
  require(trace.has("lasso_start"), where + ".lasso_start must be present");
  require(trace["params"].is_object(), where + ".params must be an object");
  require(trace["states"].is_array(), where + ".states must be an array");
  require(static_cast<std::size_t>(trace["length"].number) == trace["states"].array.size(),
          where + ".length must match states[] size");
}

JsonValue validate_stats_document(const std::string& text) {
  JsonValue doc = parse_json(text);
  require(doc.is_object(), "document must be an object");
  require(doc["schema"].is_string() && doc["schema"].string == "verdict-stats-v1",
          "schema must be \"verdict-stats-v1\"");
  require(doc["model"].is_string(), "model must be a string");
  require(doc["engine"].is_string(), "engine must be a string");
  require(doc["options"].is_object(), "options must be an object");
  require(doc["properties"].is_array(), "properties must be an array");
  for (std::size_t i = 0; i < doc["properties"].array.size(); ++i) {
    const JsonValue& p = doc["properties"].array[i];
    const std::string where = "properties[" + std::to_string(i) + "]";
    require(p.is_object(), where + " must be an object");
    require(p["name"].is_string(), where + ".name must be a string");
    require(p["kind"].is_string() &&
                (p["kind"].string == "ltl" || p["kind"].string == "ctl"),
            where + ".kind must be \"ltl\" or \"ctl\"");
    require(p["text"].is_string(), where + ".text must be a string");
    require(p["verdict"].is_string(), where + ".verdict must be a string");
    validate_stats_block(p["stats"], where);
    if (p.has("counterexample"))
      validate_trace_block(p["counterexample"], where + ".counterexample");
  }
  validate_stats_block(doc["total"], "total");
  require(doc["counters"].is_object(), "counters must be an object");
  for (const auto& [name, v] : doc["counters"].object) {
    require(v.is_number(), "counters." + name + " must be a number");
    require(v.number >= 0, "counters." + name + " must be non-negative");
    // The incremental re-verification counters are a closed, documented set
    // (docs/incremental.md); an unknown inc.* name is a producer bug, not a
    // future extension.
    if (name.rfind("inc.", 0) == 0) {
      static const char* kIncCounters[] = {
          "inc.properties_reused",  "inc.invariants_revalidated",
          "inc.revalidation_failed", "inc.cex_replayed",
          "inc.cex_replay_failed",   "inc.artifact_exported",
          "inc.artifact_rejected",
      };
      bool known = false;
      for (const char* k : kIncCounters) known = known || name == k;
      require(known, "counters." + name + " is not a known inc.* counter");
    }
    // The service-plane counters are likewise closed (docs/service.md and
    // docs/sharding.md): request admission, verdict cache, batching, wire
    // framing, model cache, plus the sharded-store tiers (ring routing, the
    // persistent segment, and the peer exchange).
    if (name.rfind("svc.", 0) == 0) {
      static const char* kSvcCounters[] = {
          "svc.requests",           "svc.rejected",
          "svc.connections",        "svc.queue.enqueued",
          "svc.queue.dequeued",     "svc.cache.hit",
          "svc.cache.miss",         "svc.cache.insert",
          "svc.cache.evict",        "svc.cache.reject",
          "svc.cache.load_skipped", "svc.cache_bypassed",
          "svc.singleflight.shared", "svc.rehydrate_failed",
          "svc.fp_memo_clears",     "svc.batches_formed",
          "svc.batch_size",         "svc.frames_rejected",
          "svc.model_cache.hit",    "svc.model_cache.miss",
          "svc.ring.local",         "svc.ring.remote",
          "svc.segment.hit",        "svc.segment.miss",
          "svc.segment.append",     "svc.segment.loaded",
          "svc.segment.skipped",    "svc.peer.get",
          "svc.peer.hit",           "svc.peer.miss",
          "svc.peer.put",           "svc.peer.serve_get",
          "svc.peer.serve_put",     "svc.peer.unreachable",
      };
      bool known = false;
      for (const char* k : kSvcCounters) known = known || name == k;
      require(known, "counters." + name + " is not a known svc.* counter");
    }
    // The abstraction counters are closed too (docs/abstraction.md): symmetry
    // detection, quotient collapse, threshold validation, and the CEGAR
    // loop's concretization / refinement / fallback outcomes.
    if (name.rfind("abs.", 0) == 0) {
      static const char* kAbsCounters[] = {
          "abs.orbits_found",           "abs.vars_collapsed",
          "abs.cegar_refinements",      "abs.spurious_traces",
          "abs.fallback_concrete",      "abs.threshold_probes",
          "abs.guided_concretizations", "abs.guided_fallbacks",
      };
      bool known = false;
      for (const char* k : kAbsCounters) known = known || name == k;
      require(known, "counters." + name + " is not a known abs.* counter");
    }
    // The BDD engine counters are closed (docs/engines.md): the dynamic-
    // reordering sifter and the compressed reachable-set index.
    if (name.rfind("bdd.", 0) == 0) {
      static const char* kBddCounters[] = {
          "bdd.reorder.runs",  "bdd.reorder.swaps", "bdd.reorder.nodes_saved",
          "bdd.index.hits",    "bdd.index.marks",   "bdd.index.blocks",
      };
      bool known = false;
      for (const char* k : kBddCounters) known = known || name == k;
      require(known, "counters." + name + " is not a known bdd.* counter");
    }
    // The portfolio counters are closed (docs/engines.md): race wins plus the
    // cross-lane lemma bus traffic.
    if (name.rfind("portfolio.", 0) == 0) {
      static const char* kPortfolioCounters[] = {
          "portfolio.wins",
          "portfolio.lemmas_exported",
          "portfolio.lemmas_consumed",
      };
      bool known = false;
      for (const char* k : kPortfolioCounters) known = known || name == k;
      require(known, "counters." + name + " is not a known portfolio.* counter");
    }
    // The SMT-layer counters are closed (docs/engines.md): solver lifecycle
    // plus the cross-frame translation memo.
    if (name.rfind("smt.", 0) == 0) {
      static const char* kSmtCounters[] = {
          "smt.checks",
          "smt.solvers_created",
          "smt.translate_memo.hit",
          "smt.translate_memo.miss",
      };
      bool known = false;
      for (const char* k : kSmtCounters) known = known || name == k;
      require(known, "counters." + name + " is not a known smt.* counter");
    }
  }
  require(doc["exit_code"].is_number(), "exit_code must be a number");
  return doc;
}

// --- NDJSON trace aggregation ------------------------------------------------

struct EngineAgg {
  std::size_t runs = 0;
  double seconds = 0.0;
  double solver_seconds = 0.0;
  std::string last_verdict;
};

struct TraceAgg {
  std::size_t events = 0;
  std::map<std::string, std::size_t> by_type;
  std::map<std::string, EngineAgg> engines;  // from engine.finish
  std::vector<std::string> wins;             // portfolio.win rationale lines
  std::string model;                         // from run.start
  double last_ts = 0.0;
};

TraceAgg aggregate_trace(const std::string& text) {
  TraceAgg agg;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue event;
    try {
      event = parse_json(line);
    } catch (const std::exception& error) {
      throw std::runtime_error("trace line " + std::to_string(lineno) + ": " +
                               error.what());
    }
    require(event.is_object(), "trace line " + std::to_string(lineno) +
                                   " must be an object");
    require(event["ts"].is_number(),
            "trace line " + std::to_string(lineno) + " missing \"ts\"");
    require(event["type"].is_string(),
            "trace line " + std::to_string(lineno) + " missing \"type\"");
    ++agg.events;
    agg.last_ts = event["ts"].number;
    const std::string& type = event["type"].string;
    ++agg.by_type[type];
    if (type == "run.start" && event["model"].is_string())
      agg.model = event["model"].string;
    if (type == "engine.finish") {
      EngineAgg& e = agg.engines[event["engine"].string];
      ++e.runs;
      e.seconds += event["seconds"].number;
      e.solver_seconds += event["solver_seconds"].number;
      e.last_verdict = event["verdict"].string;
    }
    if (type == "portfolio.win") {
      std::ostringstream os;
      os << "property " << static_cast<long>(event["property"].number) << ": won by "
         << event["lane"].string << " (" << event["verdict"].string << ") after "
         << event["wall_seconds"].number << "s wall, "
         << static_cast<long>(event["cancelled_lanes"].number)
         << " lane(s) cancelled";
      agg.wins.push_back(os.str());
    }
  }
  return agg;
}

// --- report rendering --------------------------------------------------------

void print_stats_report(const JsonValue& doc) {
  std::printf("run: model=%s engine=%s depth=%ld exit=%ld\n",
              doc["model"].string.c_str(), doc["engine"].string.c_str(),
              static_cast<long>(doc["options"]["depth"].number),
              static_cast<long>(doc["exit_code"].number));
  std::printf("properties:\n");
  for (const JsonValue& p : doc["properties"].array) {
    std::printf("  %-4s %-24s %-13s %6.2fs  depth %-3ld [%s]%s\n",
                p["kind"].string.c_str(), p["name"].string.c_str(),
                p["verdict"].string.c_str(), p["stats"]["seconds"].number,
                static_cast<long>(p["stats"]["depth_reached"].number),
                p["stats"]["engine"].string.c_str(),
                p.has("counterexample") ? "  (counterexample)" : "");
  }
  const JsonValue& total = doc["total"];
  std::printf("total: %.2fs wall, %.2fs in solver, %ld check(s), %ld solver(s), "
              "%ld assertion(s)\n",
              total["seconds"].number, total["solver_seconds"].number,
              static_cast<long>(total["solver_checks"].number),
              static_cast<long>(total["solvers_created"].number),
              static_cast<long>(total["frame_assertions"].number));
  if (!doc["counters"].object.empty()) {
    std::printf("counters:\n");
    for (const auto& [name, v] : doc["counters"].object)
      std::printf("  %-28s %ld\n", name.c_str(), static_cast<long>(v.number));
    const auto counter = [&doc](const char* name) -> long {
      const JsonValue& v = doc["counters"][name];
      return v.is_number() ? static_cast<long>(v.number) : 0;
    };
    const long reused = counter("inc.properties_reused");
    const long revalidated = counter("inc.invariants_revalidated");
    const long failed = counter("inc.revalidation_failed");
    if (reused + revalidated + failed > 0)
      std::printf("incremental: %ld verdict(s) reused, %ld proof(s) revalidated, "
                  "%ld revalidation(s) failed\n",
                  reused, revalidated, failed);
    const long orbits = counter("abs.orbits_found");
    const long collapsed = counter("abs.vars_collapsed");
    const long refinements = counter("abs.cegar_refinements");
    const long spurious = counter("abs.spurious_traces");
    const long fallback = counter("abs.fallback_concrete");
    const long guided = counter("abs.guided_concretizations");
    if (orbits + collapsed + refinements + spurious + fallback > 0)
      std::printf("abstraction: %ld orbit(s), %ld var(s) collapsed, "
                  "%ld refinement(s), %ld spurious trace(s), "
                  "%ld guided concretization(s), %ld concrete fallback(s)\n",
                  orbits, collapsed, refinements, spurious, guided, fallback);
  }
}

void print_trace_report(const TraceAgg& agg) {
  std::printf("trace: %zu event(s) over %.2fs%s%s\n", agg.events, agg.last_ts,
              agg.model.empty() ? "" : ", model=", agg.model.c_str());
  if (!agg.engines.empty()) {
    std::printf("engine time breakdown:\n");
    std::printf("  %-20s %5s %9s %9s %7s  %s\n", "engine", "runs", "seconds",
                "solver", "share", "last verdict");
    for (const auto& [name, e] : agg.engines) {
      const double share = e.seconds > 0.0 ? 100.0 * e.solver_seconds / e.seconds : 0.0;
      std::printf("  %-20s %5zu %8.2fs %8.2fs %6.1f%%  %s\n", name.c_str(), e.runs,
                  e.seconds, e.solver_seconds, share, e.last_verdict.c_str());
    }
  }
  if (!agg.wins.empty()) {
    std::printf("portfolio:\n");
    for (const std::string& w : agg.wins) std::printf("  %s\n", w.c_str());
  }
  std::printf("events by type:\n");
  for (const auto& [type, n] : agg.by_type)
    std::printf("  %-28s %zu\n", type.c_str(), n);
}

}  // namespace

int main(int argc, char** argv) {
  std::string stats_path;
  std::string trace_path;
  bool check_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--stats") {
      stats_path = value();
    } else if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--check") {
      check_only = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  if (stats_path.empty() && trace_path.empty()) usage(argv[0], 2);
  if (stats_path == "-" && trace_path == "-") {
    std::fprintf(stderr, "verdict-report: only one of --stats/--trace may be '-'\n");
    return 2;
  }

  try {
    if (!stats_path.empty()) {
      const JsonValue doc = validate_stats_document(read_file(stats_path));
      if (!check_only) print_stats_report(doc);
    }
    if (!trace_path.empty()) {
      const TraceAgg agg = aggregate_trace(read_file(trace_path));
      if (!check_only) {
        if (!stats_path.empty()) std::printf("\n");
        print_trace_report(agg);
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "verdict-report: %s\n", error.what());
    return 1;
  }
  return 0;
}
