#include "svc/protocol.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/result.h"

namespace verdict::svc {

const char* engine_name(core::Engine e) {
  using core::Engine;
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
    case Engine::kPortfolio:
      return "portfolio";
  }
  return "?";
}

std::optional<core::Engine> engine_from_name(std::string_view name) {
  using core::Engine;
  if (name == "auto") return Engine::kAuto;
  if (name == "bmc") return Engine::kBmc;
  if (name == "kinduction") return Engine::kKInduction;
  if (name == "pdr") return Engine::kPdr;
  if (name == "explicit") return Engine::kExplicit;
  if (name == "lasso") return Engine::kLtlLasso;
  if (name == "portfolio") return Engine::kPortfolio;
  return std::nullopt;
}

std::optional<core::Verdict> verdict_from_name(std::string_view name) {
  using core::Verdict;
  if (name == "holds") return Verdict::kHolds;
  if (name == "violated") return Verdict::kViolated;
  if (name == "bound-reached") return Verdict::kBoundReached;
  if (name == "timeout") return Verdict::kTimeout;
  if (name == "unknown") return Verdict::kUnknown;
  return std::nullopt;
}

std::string parse_request(std::string_view payload, WireRequest& out) {
  out = WireRequest{};
  obs::JsonValue req;
  try {
    req = obs::parse_json(payload);
  } catch (const std::exception& error) {
    return std::string("bad request JSON: ") + error.what();
  }
  const obs::JsonValue& id = req["id"];
  if (id.is_string()) out.id = id.string;
  if (id.is_number()) out.id = obs::json_number(id.number);

  if (!req["model"].is_string() || req["model"].string.empty())
    return "request needs a \"model\" field (vml text)";
  out.model = req["model"].string;
  if (req.has("engine")) {
    const std::optional<core::Engine> parsed = engine_from_name(req["engine"].string);
    if (!parsed) return "unknown engine '" + req["engine"].string + "'";
    out.engine = *parsed;
  }
  // Range checks before the casts: a double outside int (or a duration past
  // the clock's range) does not convert.
  if (req["depth"].is_number()) {
    const double depth = req["depth"].number;
    if (!(depth >= 0 && depth <= std::numeric_limits<int>::max()))
      return "\"depth\" must be a non-negative integer";
    out.depth = static_cast<int>(depth);
  }
  if (req["timeout"].is_number()) {
    const double timeout = req["timeout"].number;
    if (!std::isfinite(timeout) || timeout > 1e9)
      return "\"timeout\" must be a finite number of seconds";
    out.timeout = std::max(timeout, 0.0);
  }
  if (req["optimize"].kind == obs::JsonValue::Kind::kBool)
    out.optimize = req["optimize"].boolean;
  if (req["abstract"].kind == obs::JsonValue::Kind::kBool)
    out.abstract = req["abstract"].boolean;
  if (req["props"].is_array()) {
    out.props.emplace();
    for (const obs::JsonValue& p : req["props"].array) {
      if (!p.is_string()) return "\"props\" must be an array of names";
      out.props->push_back(p.string);
    }
  }
  return "";
}

std::string wire_verdict_line(const std::string& id, const WireVerdict& v) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("type", "verdict");
  w.kv("id", id);
  w.kv("prop", v.prop);
  w.kv("verdict", core::verdict_name(v.verdict));
  w.kv("engine", v.engine);
  if (!v.message.empty()) w.kv("message", v.message);
  w.kv("seconds", v.seconds);
  w.kv("solver_seconds", v.solver_seconds);
  w.kv("solver_checks", v.solver_checks);
  w.kv("depth_reached", v.depth_reached);
  w.kv("cache_hit", v.cache_hit);
  if (v.rejected) w.kv("rejected", true);
  if (!v.counterexample_json.empty()) {
    w.key("counterexample");
    w.raw_value(v.counterexample_json);
  }
  w.end_object();
  return w.str();
}

std::optional<WireVerdict> wire_verdict_from_json(const obs::JsonValue& line) {
  if (!line.is_object() || line["type"].string != "verdict") return std::nullopt;
  if (!line["prop"].is_string() || !line["verdict"].is_string()) return std::nullopt;
  const std::optional<core::Verdict> verdict =
      verdict_from_name(line["verdict"].string);
  if (!verdict) return std::nullopt;

  WireVerdict v;
  v.prop = line["prop"].string;
  v.verdict = *verdict;
  v.engine = line["engine"].string;
  v.message = line["message"].string;
  if (line["seconds"].is_number()) v.seconds = line["seconds"].number;
  if (line["solver_seconds"].is_number())
    v.solver_seconds = line["solver_seconds"].number;
  // Range checks before the casts, as in parse_request: an out-of-range
  // double from a faulty or hostile daemon does not convert.
  if (line["solver_checks"].is_number()) {
    const double checks = line["solver_checks"].number;
    if (!(checks >= 0 && checks <= 9007199254740992.0)) return std::nullopt;  // 2^53
    v.solver_checks = static_cast<std::size_t>(checks);
  }
  if (line["depth_reached"].is_number()) {
    const double depth = line["depth_reached"].number;
    if (!(depth >= -1 && depth <= std::numeric_limits<int>::max())) return std::nullopt;
    v.depth_reached = static_cast<int>(depth);
  }
  v.cache_hit = line["cache_hit"].boolean;
  v.rejected = line["rejected"].boolean;
  if (line.has("counterexample"))
    v.counterexample_json = obs::to_json(line["counterexample"]);
  return v;
}

}  // namespace verdict::svc
