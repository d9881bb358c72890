#include "inc/artifact.h"

#include <limits>

#include "svc/stored_trace.h"

namespace verdict::inc {

namespace {

const char* kSchema = "verdict-artifact-v1";

const char* kind_name(core::ProofArtifact::Kind kind) {
  switch (kind) {
    case core::ProofArtifact::Kind::kPdrInvariant:
      return "pdr";
    case core::ProofArtifact::Kind::kKInduction:
      return "kinduction";
  }
  return "?";
}

}  // namespace

std::string artifact_to_json(const core::ProofArtifact& artifact) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", kSchema);
  w.kv("kind", kind_name(artifact.kind));
  w.kv("k", static_cast<std::int64_t>(artifact.k));
  w.key("pinned");
  w.raw_value(svc::state_to_json(artifact.pinned));
  w.key("cubes");
  w.begin_array();
  for (const ts::State& cube : artifact.cubes) w.raw_value(svc::state_to_json(cube));
  w.end_array();
  w.end_object();
  return w.str();
}

std::optional<core::ProofArtifact> artifact_from_json(const obs::JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  if (!doc["schema"].is_string() || doc["schema"].string != kSchema) return std::nullopt;
  if (!doc["kind"].is_string() || !doc["k"].is_number()) return std::nullopt;

  core::ProofArtifact artifact;
  if (doc["kind"].string == "pdr") {
    artifact.kind = core::ProofArtifact::Kind::kPdrInvariant;
  } else if (doc["kind"].string == "kinduction") {
    artifact.kind = core::ProofArtifact::Kind::kKInduction;
  } else {
    return std::nullopt;
  }
  const std::optional<std::int64_t> k =
      obs::json_integer(doc["k"], 0, std::numeric_limits<int>::max());
  if (!k) return std::nullopt;
  artifact.k = static_cast<int>(*k);

  if (doc.has("pinned")) {
    std::optional<ts::State> pinned = svc::state_from_json(doc["pinned"]);
    if (!pinned) return std::nullopt;
    artifact.pinned = std::move(*pinned);
  }
  if (doc.has("cubes")) {
    if (!doc["cubes"].is_array()) return std::nullopt;
    for (const obs::JsonValue& c : doc["cubes"].array) {
      std::optional<ts::State> cube = svc::state_from_json(c);
      if (!cube) return std::nullopt;
      artifact.cubes.push_back(std::move(*cube));
    }
  }
  return artifact;
}

std::optional<core::ProofArtifact> artifact_from_json(const std::string& text) {
  try {
    return artifact_from_json(obs::parse_json(text));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace verdict::inc
