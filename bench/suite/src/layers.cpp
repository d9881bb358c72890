#include "layers.h"

#include <algorithm>

#include "obs/json.h"

namespace vbench {

std::vector<Interval> merged(std::vector<Interval> in) {
  std::sort(in.begin(), in.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::vector<Interval> out;
  for (const Interval& i : in) {
    if (i.end <= i.start) continue;
    if (!out.empty() && i.start <= out.back().end)
      out.back().end = std::max(out.back().end, i.end);
    else
      out.push_back(i);
  }
  return out;
}

double total(const std::vector<Interval>& disjoint) {
  double sum = 0.0;
  for (const Interval& i : disjoint) sum += i.end - i.start;
  return sum;
}

double covered(double start, double end, const std::vector<Interval>& cover) {
  double sum = 0.0;
  for (const Interval& c : cover)
    sum += std::max(0.0, std::min(end, c.end) - std::max(start, c.start));
  return sum;
}

namespace {

std::string engine_metric(const std::string& engine) {
  if (engine == "k-induction") return "engine.run_s.kinduction";
  if (engine.rfind("bmc", 0) == 0) return "engine.run_s.bmc";
  return "engine.run_s." + engine;
}

std::vector<Interval> concat(std::vector<Interval> a, const std::vector<Interval>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

LayerCapture::LayerCapture() : sink_(events_) {
  before_ = verdict::obs::counters_snapshot();
  verdict::obs::set_sink(&sink_);
  installed_ = true;
}

LayerCapture::~LayerCapture() { uninstall(); }

void LayerCapture::uninstall() {
  if (installed_) verdict::obs::set_sink(nullptr);
  installed_ = false;
}

std::map<std::string, double> LayerCapture::counter_deltas() const {
  std::map<std::string, double> out;
  for (const auto& [name, value] : verdict::obs::counters_snapshot()) {
    const auto it = before_.find(name);
    const std::uint64_t base = it == before_.end() ? 0 : it->second;
    if (value > base) out[name] = static_cast<double>(value - base);
  }
  return out;
}

LayerCapture::Spans LayerCapture::collect(double t0, double t1) {
  Spans spans;
  const auto clip = [&](double s, double e) {
    return Interval{std::max(s, t0), std::min(e, t1)};
  };
  std::istringstream lines(events_.str());
  std::string line;
  while (std::getline(lines, line)) {
    const bool is_smt = line.find("\"type\":\"smt.check\"") != std::string::npos;
    const bool is_engine = line.find("\"type\":\"engine.finish\"") != std::string::npos;
    const bool is_opt = line.find("\"type\":\"opt.pipeline\"") != std::string::npos;
    if (!is_smt && !is_engine && !is_opt) continue;
    const verdict::obs::JsonValue ev = verdict::obs::parse_json(line);
    const double ts = ev["ts"].number;
    // opt.pipeline is a Span stamped at its start; the others are stamped
    // when the work ends and carry its length.
    const Interval i = is_opt ? clip(ts, ts + ev["dur"].number)
                              : clip(ts - ev["seconds"].number, ts);
    if (i.end <= i.start) continue;
    if (is_opt) {
      spans.opt.push_back(i);
      spans.seconds["opt.pipeline_s"] += i.end - i.start;
    } else if (is_smt) {
      spans.smt.push_back(i);
      spans.seconds["smt.solve_s"] += i.end - i.start;
    } else {
      spans.engine.push_back(i);
      spans.seconds[engine_metric(ev["engine"].string)] += i.end - i.start;
    }
  }
  const std::vector<Interval> engines = merged(spans.engine);
  double smt_in_engines = 0.0;
  for (const Interval& s : spans.smt) smt_in_engines += covered(s.start, s.end, engines);
  spans.seconds["engine.run_s"] += total(engines);
  spans.seconds["enc.encode_s"] += total(engines) - smt_in_engines;
  return spans;
}

std::map<std::string, double> LayerCapture::finish(Entry entry, double t0, double t1) {
  uninstall();
  std::map<std::string, double> out = counter_deltas();
  Spans spans = collect(t0, t1);
  for (const auto& [name, seconds] : spans.seconds) out[name] += seconds;

  const double wall = t1 - t0;
  const std::vector<Interval> engines = merged(spans.engine);
  const std::vector<Interval> cover =
      merged(concat(concat(spans.opt, spans.engine), spans.smt));
  double attributed = total(cover);
  // An engine's span closes before it tears down its solvers and returns;
  // the uncovered tail after the last one is that teardown.
  const double engines_end = engines.empty() ? t1 : engines.back().end;
  const double tail = (t1 - engines_end) - covered(engines_end, t1, cover);
  if (!engines.empty()) {
    out["engine.run_s"] += tail;
    attributed += tail;
  }
  // The whole call is one engine (or one layer): its wall is that layer's.
  const auto whole_engine = [&](const std::string& engine) {
    out["engine.run_s." + engine] = wall;
    out["engine.run_s"] = wall;
    attributed = wall;
  };
  switch (entry) {
    case Entry::kCheck:
      if (out.count("abs.vars_collapsed") != 0) {
        // Uncovered time before the first engine span is the symmetry
        // detection and quotient build; solver queries outside every engine
        // and the optimizer are the quotient's threshold validations.
        const double engines_start = engines.empty() ? t1 : engines.front().start;
        double gaps = 0.0;
        double cursor = t0;
        for (const Interval& c : cover) {
          if (c.start >= engines_start) break;
          gaps += std::max(0.0, c.start - cursor);
          cursor = std::max(cursor, c.end);
        }
        gaps += std::max(0.0, engines_start - cursor);
        const std::vector<Interval> engine_opt = merged(concat(spans.engine, spans.opt));
        double abs_queries = 0.0;
        for (const Interval& s : spans.smt)
          abs_queries += (s.end - s.start) - covered(s.start, s.end, engine_opt);
        out["abs.abstract_s"] += gaps + abs_queries;
        attributed += gaps;
        out["abs.attempts"] += 1;
        if (out.count("abs.fallback_concrete") == 0) out["abs.useful"] += 1;
      }
      break;
    case Entry::kBmc:
    case Entry::kLasso:
      // These engines unroll for themselves: their time outside solver
      // queries is their encoding.
      whole_engine(entry == Entry::kBmc ? "bmc" : "lasso");
      out["enc.encode_s"] = wall - total(merged(spans.smt));
      break;
    case Entry::kL2s:
      whole_engine("l2s");
      break;
    case Entry::kSynth:
      out["synth.self_s"] += wall - attributed;
      attributed = wall;
      break;
    case Entry::kBdd:
      out["bdd.run_s"] += wall - total(merged(spans.opt));
      attributed = wall;
      break;
  }
  out["trace.wall_s"] += wall;
  out["trace.attributed_s"] += std::min(attributed, wall);
  return out;
}

std::map<std::string, double> LayerCapture::finish_window(std::vector<Interval>& cover) {
  const double t1 = sink_.now();
  uninstall();
  std::map<std::string, double> out = counter_deltas();
  Spans spans = collect(0.0, t1);
  for (const auto& [name, seconds] : spans.seconds) out[name] += seconds;
  cover = merged(concat(concat(spans.opt, spans.engine), spans.smt));
  return out;
}

}  // namespace vbench
