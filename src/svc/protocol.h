// The verdictd wire protocol: JSON payloads over a Unix-domain stream
// socket, each carried in one length-prefixed binary frame (svc/frame.h).
//
// One request per message, answered by one "verdict" message per checked
// property followed by a single "done" (or an "error"). The model travels
// as vml TEXT — both sides parse it, which is what makes counterexample
// traces portable: the server serializes them name-keyed (svc/stored_trace.h)
// and the client rehydrates them against its own parse of the same text.
//
//   -> {"id":"1","model":"<vml>","props":["safe"],"engine":"bmc",
//       "depth":30,"timeout":5.0}
//   <- {"type":"verdict","id":"1","prop":"safe","verdict":"holds",
//       "engine":"bmc","seconds":0.01,...,"cache_hit":false}
//   <- {"type":"done","id":"1","served":1,"cache_hits":0}
//
// Full field tables: docs/service.md. This header holds the pieces both
// daemon and client need: name<->enum maps and the verdict-line record.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/checker.h"
#include "obs/json.h"

namespace verdict::svc {

/// CLI/wire name of an engine ("auto", "bmc", ... — same spelling as
/// verdictc --engine).
[[nodiscard]] const char* engine_name(core::Engine e);
[[nodiscard]] std::optional<core::Engine> engine_from_name(std::string_view name);

/// Inverse of core::verdict_name.
[[nodiscard]] std::optional<core::Verdict> verdict_from_name(std::string_view name);

/// One request, in wire form and range-checked. The daemon still resolves
/// the model text and the property names against it.
struct WireRequest {
  std::string id;                                 // echoed in every response
  std::string model;                              // vml text, non-empty
  std::optional<std::vector<std::string>> props;  // absent = every LTL property
  core::Engine engine = core::Engine::kAuto;
  int depth = 50;
  double timeout = 0.0;  // seconds; 0 = no deadline
  bool optimize = true;
  bool abstract = true;
};

/// Parses one request payload into `out`. Returns "" on success, else the
/// reason to reject it; `out.id` is filled whenever the payload carries a
/// readable id, so the error response can name the request. Never throws:
/// every byte string ends in a request or a reason.
[[nodiscard]] std::string parse_request(std::string_view payload, WireRequest& out);

/// One "verdict" response line, in wire form (the counterexample stays as
/// its JSON text; rehydration is the client's job).
struct WireVerdict {
  std::string prop;
  core::Verdict verdict = core::Verdict::kUnknown;
  std::string engine;
  std::string message;
  double seconds = 0.0;
  double solver_seconds = 0.0;
  std::size_t solver_checks = 0;
  int depth_reached = -1;
  bool cache_hit = false;
  bool rejected = false;
  std::string counterexample_json;  // empty = none
};

/// Renders the full response line: {"type":"verdict","id":...,...}.
[[nodiscard]] std::string wire_verdict_line(const std::string& id,
                                            const WireVerdict& v);

/// Parses a "verdict" line previously rendered by wire_verdict_line.
/// Returns nullopt when the object is not a conformant verdict line.
[[nodiscard]] std::optional<WireVerdict> wire_verdict_from_json(
    const obs::JsonValue& line);

}  // namespace verdict::svc
