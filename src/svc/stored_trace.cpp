#include "svc/stored_trace.h"

#include "obs/stats_json.h"

namespace verdict::svc {

namespace {

// JSON value -> expr::Value under the variable's declared type. The writer
// (obs::write_value) emits bools as JSON bools, ints as JSON numbers, and
// exact rationals as strings ("3/7"); accept exactly that.
std::optional<expr::Value> parse_value(const obs::JsonValue& v, const expr::Type& type) {
  switch (type.kind) {
    case expr::TypeKind::kBool:
      if (v.kind != obs::JsonValue::Kind::kBool) return std::nullopt;
      return expr::Value{v.boolean};
    case expr::TypeKind::kInt: {
      const std::optional<std::int64_t> i = obs::json_integer(v);
      if (!i) return std::nullopt;
      return expr::Value{*i};
    }
    case expr::TypeKind::kReal:
      try {
        if (v.is_number()) {
          const std::optional<std::int64_t> i = obs::json_integer(v);
          if (!i) return std::nullopt;
          return expr::Value{util::Rational(*i)};
        }
        if (v.is_string()) return expr::Value{util::Rational::parse(v.string)};
      } catch (const std::exception&) {
        return std::nullopt;
      }
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::optional<ts::State> state_from_json(const obs::JsonValue& obj) {
  if (!obj.is_object()) return std::nullopt;
  ts::State state;
  for (const auto& [name, v] : obj.object) {
    if (!expr::var_exists(name)) return std::nullopt;
    const expr::Expr var = expr::var_by_name(name);
    const std::optional<expr::Value> value = parse_value(v, var.type());
    if (!value) return std::nullopt;
    state.set(var, *value);
  }
  return state;
}

std::string state_to_json(const ts::State& state) {
  obs::JsonWriter w;
  obs::write_state(w, state);
  return w.str();
}

std::string trace_to_json(const ts::Trace& trace) {
  obs::JsonWriter w;
  obs::write_trace(w, trace);
  return w.str();
}

std::optional<ts::Trace> trace_from_json(const obs::JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  if (!doc["states"].is_array() || !doc["params"].is_object()) return std::nullopt;
  ts::Trace trace;
  if (doc["lasso_start"].is_number()) {
    const std::optional<std::int64_t> start =
        obs::json_integer(doc["lasso_start"], 0, obs::kJsonExactIntegerMax);
    if (!start) return std::nullopt;
    trace.lasso_start = static_cast<std::size_t>(*start);
  }
  const std::optional<ts::State> params = state_from_json(doc["params"]);
  if (!params) return std::nullopt;
  trace.params = *params;
  for (const obs::JsonValue& s : doc["states"].array) {
    std::optional<ts::State> state = state_from_json(s);
    if (!state) return std::nullopt;
    trace.states.push_back(std::move(*state));
  }
  if (doc["length"].is_number() &&
      obs::json_integer(doc["length"], 0, obs::kJsonExactIntegerMax) !=
          static_cast<std::int64_t>(trace.states.size()))
    return std::nullopt;
  return trace;
}

std::optional<ts::Trace> trace_from_json(const std::string& text) {
  try {
    return trace_from_json(obs::parse_json(text));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace verdict::svc
