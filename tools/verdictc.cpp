// verdictc — command-line model checker for vml models.
//
// Usage:
//   verdictc MODEL.vml [options]
//
// Options:
//   --list                 list declared properties and exit
//   --prop NAME            check only the named property (repeatable;
//   --property NAME        alias)
//   --props-file FILE      read property names from FILE (one per line,
//                          blank lines and '#' comments ignored)
//   --engine ENGINE        auto | bmc | kinduction | pdr | explicit | lasso
//                          (LTL properties; CTL always uses the BDD engine)
//   --depth N              unroll depth / induction bound / frame limit (50)
//   --timeout SECONDS      wall-clock budget for the whole run (default: none)
//   --smv FILE             also export the model + properties as NuXMV input
//   --trace                print counterexample traces (full states per step)
//   --explain              print counterexample traces as state *diffs*
//                          (only changed variables; parameters up front)
//   --no-opt               skip the opt/ optimization pipeline (constant
//                          folding, constant propagation, cone-of-influence
//                          slicing; docs/optimizer.md) — verdicts must be
//                          identical either way, only speed differs
//   --no-abs               skip the abs/ symmetry-reduction pass
//                          (docs/abstraction.md) — same contract as --no-opt:
//                          identical verdicts, different cost profile
//   --stats-json FILE      write the whole run as one JSON document
//                          (schema "verdict-stats-v1", docs/observability.md)
//   --trace-out FILE       stream structured engine events to FILE as NDJSON
//                          (one JSON object per line; see docs/observability.md)
//   --connect SOCK         check LTL properties via a running verdictd at the
//                          given Unix socket instead of in-process (verdicts,
//                          exit codes, and printing are identical; repeated
//                          requests hit the daemon's verdict cache). CTL
//                          properties are still checked locally (BDD engine).
//   --connect-timeout SECS with --connect: keep retrying the connect with
//                          exponential backoff while verdictd is starting
//                          (ECONNREFUSED/ENOENT) for up to SECS (default 0:
//                          one attempt)
//   --io-timeout SECS      with --connect: bound each socket read/write — a
//                          hung daemon fails instead of hanging verdictc.
//                          Size it to the SLOWEST single verification, not
//                          the connect window: the daemon sends nothing
//                          while a check runs (default 0: no I/O bound)
//   --quiet                only print the per-property verdict lines
//   --version              print version (git SHA, build type, Z3) and exit
//
// All selected LTL properties are checked in ONE core::Session, which shares
// the solver unrolling across them (see src/core/session.h); a per-property
// verdict table is printed at the end of the run.
//
// Every kViolated verdict is independently confirmed on the spot: the trace
// is replayed through the exact evaluator (core::confirm_counterexample) and
// the confirmation status is printed; a trace that fails confirmation is a
// checker bug and exits with status 2 instead of silently printing a bogus
// counterexample.
//
// Exit codes (also in --help):
//   0  every checked property holds or is bound-clean
//   1  at least one property is violated
//   2  usage, model, or counterexample-confirmation error
//   3  no violation, but at least one property timed out or came back unknown
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bdd/checker.h"
#include "core/checker.h"
#include "core/session.h"
#include "mdl/vml.h"
#include "obs/explain.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "smt/solver.h"
#include "svc/client.h"
#include "ts/smv_export.h"
#include "util/strings.h"
#include "util/version.h"

#include <fstream>
#include <sstream>

namespace {

struct Options {
  std::string model_path;
  std::vector<std::string> properties;
  verdict::core::Engine engine = verdict::core::Engine::kAuto;
  int depth = 50;
  double timeout = 0.0;  // 0 = none
  bool list_only = false;
  bool print_trace = false;
  bool explain = false;
  bool quiet = false;
  bool optimize = true;  // --no-opt clears this
  bool abstract = true;  // --no-abs clears this
  std::string smv_out;     // when set, export the model to this .smv path
  std::string stats_json;  // when set, write the verdict-stats-v1 document here
  std::string trace_out;   // when set, stream NDJSON engine events here
  std::string connect;     // when set, check LTL props via verdictd at this socket
  double connect_timeout = 0.0;   // --connect-timeout: connect retry window
  double io_timeout = 0.0;        // --io-timeout: per-read/write socket bound
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s MODEL.vml [options]\n"
               "  --list             list declared properties and exit\n"
               "  --prop NAME        check only the named property (repeatable;\n"
               "  --property NAME    alias)\n"
               "  --props-file FILE  read property names from FILE (one per line,\n"
               "                     blank lines and '#' comments ignored)\n"
               "  --engine ENGINE    auto|bmc|kinduction|pdr|explicit|lasso\n"
               "  --depth N          unroll depth / induction bound / frame limit (50)\n"
               "  --timeout SECONDS  wall-clock budget for the whole run\n"
               "  --no-opt           skip the optimization pipeline (docs/optimizer.md)\n"
               "  --no-abs           skip the symmetry-reduction pass (docs/abstraction.md)\n"
               "  --smv FILE         also export the model as NuXMV input\n"
               "  --trace            print counterexample traces (full states)\n"
               "  --explain          print counterexample traces as state diffs\n"
               "  --stats-json FILE  write run results as JSON (verdict-stats-v1)\n"
               "  --trace-out FILE   stream structured engine events as NDJSON\n"
               "  --connect SOCK     check LTL properties via verdictd at SOCK\n"
               "  --connect-timeout SECS  retry connect while verdictd starts\n"
               "  --io-timeout SECS  bound each socket read/write (size to the\n"
               "                     slowest single check; default: unbounded)\n"
               "  --quiet            only print the per-property verdict lines\n"
               "  --version          print version (git SHA, build type, Z3)\n"
               "exit codes:\n"
               "  0  every checked property holds or is bound-clean\n"
               "  1  at least one property is violated\n"
               "  2  usage, model, or counterexample-confirmation error\n"
               "  3  no violation, but some property timed out or is unknown\n",
               argv0);
  std::exit(code);
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--list") {
      options.list_only = true;
    } else if (arg == "--property" || arg == "--prop") {
      options.properties.push_back(value());
    } else if (arg == "--props-file") {
      const std::string path = value();
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "verdictc: cannot read props file %s\n", path.c_str());
        std::exit(2);
      }
      std::string line;
      while (std::getline(in, line)) {
        const std::string name(verdict::util::trim(line));
        if (name.empty() || name[0] == '#') continue;
        options.properties.push_back(name);
      }
    } else if (arg == "--engine") {
      const std::string engine = value();
      if (engine == "auto") {
        options.engine = verdict::core::Engine::kAuto;
      } else if (engine == "bmc") {
        options.engine = verdict::core::Engine::kBmc;
      } else if (engine == "kinduction") {
        options.engine = verdict::core::Engine::kKInduction;
      } else if (engine == "pdr") {
        options.engine = verdict::core::Engine::kPdr;
      } else if (engine == "explicit") {
        options.engine = verdict::core::Engine::kExplicit;
      } else if (engine == "lasso") {
        options.engine = verdict::core::Engine::kLtlLasso;
      } else {
        std::fprintf(stderr, "unknown engine '%s'\n", engine.c_str());
        usage(argv[0], 2);
      }
    } else if (arg == "--depth") {
      options.depth = std::atoi(value().c_str());
    } else if (arg == "--timeout") {
      options.timeout = std::atof(value().c_str());
    } else if (arg == "--no-opt") {
      options.optimize = false;
    } else if (arg == "--no-abs") {
      options.abstract = false;
    } else if (arg == "--smv") {
      options.smv_out = value();
    } else if (arg == "--trace") {
      options.print_trace = true;
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--stats-json") {
      options.stats_json = value();
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--connect") {
      options.connect = value();
    } else if (arg == "--connect-timeout") {
      options.connect_timeout = std::atof(value().c_str());
      if (options.connect_timeout < 0) {
        std::fprintf(stderr, "--connect-timeout must be non-negative\n");
        usage(argv[0], 2);
      }
    } else if (arg == "--io-timeout") {
      options.io_timeout = std::atof(value().c_str());
      if (options.io_timeout < 0) {
        std::fprintf(stderr, "--io-timeout must be non-negative\n");
        usage(argv[0], 2);
      }
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--version") {
      std::printf("%s\n",
                  verdict::util::version_line("verdictc", verdict::smt::z3_version())
                      .c_str());
      std::exit(0);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0], 2);
    } else if (options.model_path.empty()) {
      options.model_path = arg;
    } else {
      usage(argv[0], 2);
    }
  }
  if (options.model_path.empty()) usage(argv[0], 2);
  return options;
}

bool selected(const Options& options, const std::string& name) {
  if (options.properties.empty()) return true;
  for (const std::string& wanted : options.properties)
    if (wanted == name) return true;
  return false;
}

const char* engine_cli_name(verdict::core::Engine e) {
  using verdict::core::Engine;
  switch (e) {
    case Engine::kAuto:
      return "auto";
    case Engine::kBmc:
      return "bmc";
    case Engine::kKInduction:
      return "kinduction";
    case Engine::kPdr:
      return "pdr";
    case Engine::kExplicit:
      return "explicit";
    case Engine::kLtlLasso:
      return "lasso";
  }
  return "?";
}

// One checked property as it lands in the --stats-json document.
struct PropRecord {
  std::string name;
  std::string kind;  // "ltl" | "ctl"
  std::string text;
  verdict::core::CheckOutcome outcome;
};

// --trace and --explain share one renderer (obs::explain_trace); --trace
// shows full states per step, --explain only the per-step diff. Rational
// values and labels render identically either way.
void print_counterexample(const Options& options, const verdict::mdl::VmlModel& model,
                          const verdict::core::CheckOutcome& outcome) {
  if (!outcome.counterexample) return;
  if (!options.print_trace && !options.explain) return;
  verdict::obs::ExplainOptions eo;
  eo.diff_only = options.explain;
  eo.indent = "    ";
  std::printf("%s", verdict::obs::explain_trace(model.system, *outcome.counterexample, eo)
                        .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace verdict;
  const Options options = parse_args(argc, argv);

  mdl::VmlModel model;
  try {
    model = mdl::parse_vml_file(options.model_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "verdictc: %s\n", error.what());
    return 2;
  }
  if (!options.quiet)
    std::printf("%s: %zu module(s), %zu LTL + %zu CTL properties\n",
                options.model_path.c_str(), model.modules.size(),
                model.ltl_properties.size(), model.ctl_properties.size());

  if (!options.smv_out.empty()) {
    std::vector<ts::SmvProperty> smv_properties;
    for (const auto& [name, property] : model.ltl_properties)
      smv_properties.push_back({name, property, {}});
    for (const auto& [name, property] : model.ctl_properties)
      smv_properties.push_back({name, {}, property});
    const ts::SmvExport exported = ts::to_smv(model.system, smv_properties);
    std::ofstream out(options.smv_out);
    if (!out) {
      std::fprintf(stderr, "verdictc: cannot write %s\n", options.smv_out.c_str());
      return 2;
    }
    out << exported.text;
    if (!options.quiet)
      std::printf("exported NuXMV model to %s\n", options.smv_out.c_str());
  }

  if (options.list_only) {
    for (const auto& [name, property] : model.ltl_properties)
      std::printf("  ltl %s : %s\n", name.c_str(), property.str().c_str());
    for (const auto& [name, property] : model.ctl_properties)
      std::printf("  ctl %s : %s\n", name.c_str(), property.str().c_str());
    return 0;
  }

  // Every name the user asked for must exist.
  for (const std::string& wanted : options.properties) {
    if (!model.ltl_properties.contains(wanted) && !model.ctl_properties.contains(wanted)) {
      std::fprintf(stderr, "verdictc: unknown property '%s'\n", wanted.c_str());
      return 2;
    }
  }

  const util::Deadline deadline = options.timeout > 0
                                      ? util::Deadline::after_seconds(options.timeout)
                                      : util::Deadline::never();
  bool any_violation = false;
  bool any_error = false;
  bool any_undecided = false;

  // Structured event stream: installed before any engine runs so every
  // solver check shows up in the file.
  std::unique_ptr<obs::TraceSink> trace_sink;
  if (!options.trace_out.empty()) {
    try {
      trace_sink = obs::TraceSink::open_file(options.trace_out);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "verdictc: %s\n", error.what());
      return 2;
    }
    obs::set_sink(trace_sink.get());
    trace_sink->event("run.start")
        .attr("model", options.model_path)
        .attr("engine", engine_cli_name(options.engine))
        .attr("depth", options.depth)
        .emit();
  }

  std::vector<PropRecord> records;
  core::Stats total;
  total.engine = "run";

  // All selected LTL properties go through ONE session so the solver
  // unrolling is shared across them (src/core/session.h). With --connect the
  // same selection travels to verdictd as one request instead; the server's
  // responses are folded into an identical SessionResult so everything below
  // (printing, confirmation, stats JSON, exit codes) is shared.
  core::Session session(model.system);
  std::vector<std::string> ltl_selected;
  for (const auto& [name, property] : model.ltl_properties) {
    if (!selected(options, name)) continue;
    session.add_property(name, property);
    ltl_selected.push_back(name);
  }
  if (session.num_properties() > 0) {
    core::SessionResult result;
    std::vector<bool> served_from_cache;
    if (!options.connect.empty()) {
      try {
        std::ifstream model_in(options.model_path);
        std::stringstream model_text;
        model_text << model_in.rdbuf();
        svc::ClientOptions client_options;
        client_options.connect_wait_seconds = options.connect_timeout;
        // Deliberately NOT defaulted from --connect-timeout: a check that
        // runs longer than the connect window produces no socket bytes for
        // that long, and a shared knob would abort it as "hung".
        client_options.io_timeout_seconds = options.io_timeout;
        svc::Client client(options.connect, client_options);
        const std::vector<svc::ClientVerdict> verdicts = client.check(
            model_text.str(), ltl_selected, options.engine, options.depth,
            options.timeout, options.optimize, options.abstract);
        for (const svc::ClientVerdict& v : verdicts) {
          result.properties.push_back(
              {v.prop, model.ltl_properties.at(v.prop), v.outcome});
          result.total.merge(v.outcome.stats);
          served_from_cache.push_back(v.cache_hit);
        }
        result.total.engine = "verdictd";
      } catch (const std::exception& error) {
        std::fprintf(stderr, "verdictc: %s\n", error.what());
        return 2;
      }
    } else {
      try {
        core::SessionOptions check;
        check.engine = options.engine;
        check.max_depth = options.depth;
        check.optimize = options.optimize;
        check.abstract = options.abstract;
        check.deadline = deadline;
        result = session.check_all(check);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "verdictc: %s\n", error.what());
        return 2;
      }
    }
    for (std::size_t pi = 0; pi < result.properties.size(); ++pi) {
      const auto& pv = result.properties[pi];
      const auto& outcome = pv.outcome;
      std::printf("ltl %-24s %s\n", pv.name.c_str(), core::describe(outcome).c_str());
      if (!options.quiet && pi < served_from_cache.size() && served_from_cache[pi])
        std::printf("    (served from verdictd cache)\n");
      records.push_back({pv.name, "ltl", pv.property.str(), outcome});
      if (outcome.verdict == core::Verdict::kTimeout ||
          outcome.verdict == core::Verdict::kUnknown)
        any_undecided = true;
      if (outcome.violated()) {
        any_violation = true;
        // Independently confirm the trace before trusting (or printing) it:
        // it must be a genuine execution AND falsify the property.
        std::string confirm_error;
        if (core::confirm_counterexample(model.system, pv.property, outcome,
                                         &confirm_error)) {
          if (!options.quiet)
            std::printf("    counterexample confirmed (replay + property check)\n");
        } else {
          std::printf("    counterexample FAILED confirmation: %s\n",
                      confirm_error.c_str());
          any_error = true;
        }
        print_counterexample(options, model, outcome);
      }
    }
    total.merge(result.total);
    total.engine = "run";
    if (!options.quiet) {
      std::printf("\n%s", result.table().c_str());
      std::printf("session: %zu solver(s), %zu frame assertion(s), %zu check(s), %.2fs\n",
                  result.total.solvers_created, result.total.frame_assertions,
                  result.total.solver_checks, result.total.seconds);
    }
  }

  for (const auto& [name, property] : model.ctl_properties) {
    if (!selected(options, name)) continue;
    try {
      bdd::BddOptions check;
      check.deadline = deadline;
      const auto outcome = bdd::check_ctl_bdd(model.system, property, check);
      std::printf("ctl %-24s %s\n", name.c_str(), core::describe(outcome).c_str());
      records.push_back({name, "ctl", property.str(), outcome});
      total.merge(outcome.stats);
      total.engine = "run";
      if (outcome.verdict == core::Verdict::kTimeout ||
          outcome.verdict == core::Verdict::kUnknown)
        any_undecided = true;
      if (outcome.violated()) {
        any_violation = true;
        print_counterexample(options, model, outcome);
      }
    } catch (const std::exception& error) {
      std::printf("ctl %-24s ERROR: %s\n", name.c_str(), error.what());
      any_error = true;
    }
  }

  const int exit_code = any_error ? 2 : any_violation ? 1 : (any_undecided ? 3 : 0);

  if (trace_sink) {
    trace_sink->event("run.finish").attr("exit_code", exit_code).emit();
    obs::set_sink(nullptr);
    trace_sink->flush();
    if (!options.quiet)
      std::printf("wrote %zu trace event(s) to %s\n", trace_sink->events_emitted(),
                  options.trace_out.c_str());
  }

  // The verdict-stats-v1 document (schema: docs/observability.md).
  if (!options.stats_json.empty()) {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", "verdict-stats-v1");
    w.kv("model", options.model_path);
    w.kv("engine", engine_cli_name(options.engine));
    w.key("options");
    w.begin_object();
    w.kv("depth", options.depth);
    w.kv("timeout", options.timeout);
    w.kv("optimize", options.optimize);
    w.kv("abstract", options.abstract);
    w.end_object();
    w.key("properties");
    w.begin_array();
    for (const PropRecord& r : records) {
      w.begin_object();
      w.kv("name", r.name);
      w.kv("kind", r.kind);
      w.kv("text", r.text);
      w.kv("verdict", core::verdict_name(r.outcome.verdict));
      if (!r.outcome.message.empty()) w.kv("message", r.outcome.message);
      w.key("stats");
      obs::write_stats(w, r.outcome.stats);
      if (r.outcome.counterexample) {
        w.key("counterexample");
        obs::write_trace(w, *r.outcome.counterexample);
      }
      w.end_object();
    }
    w.end_array();
    w.key("total");
    obs::write_stats(w, total);
    w.key("counters");
    obs::write_counters(w);
    w.kv("exit_code", exit_code);
    w.end_object();
    std::ofstream out(options.stats_json);
    if (!out) {
      std::fprintf(stderr, "verdictc: cannot write %s\n", options.stats_json.c_str());
      return 2;
    }
    out << w.str() << "\n";
    if (!options.quiet)
      std::printf("wrote stats JSON to %s\n", options.stats_json.c_str());
  }

  return exit_code;
}
