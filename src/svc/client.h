// Client side of the verdictd protocol (`verdictc --connect SOCK`).
//
// One Client is one connection; check() sends a single request and blocks
// until the server's "done" message, over the length-prefixed binary
// framing (svc/frame.h). The caller is expected to have parsed the SAME model text locally (verdictc
// always does — it needs the parse for --list, CTL properties, and
// counterexample confirmation): the server ships counterexamples as
// name-keyed JSON and this client rehydrates them into ts::Trace values
// against the local variable registry, so a served kViolated outcome goes
// through the exact same core::confirm_counterexample path as a locally
// computed one.
#pragma once

#include <string>
#include <vector>

#include "core/checker.h"
#include "core/result.h"
#include "svc/frame.h"

namespace verdict::svc {

struct ClientVerdict {
  std::string prop;
  core::CheckOutcome outcome;  // counterexample rehydrated, if any
  bool cache_hit = false;
  /// The server's admission queue was full for this property.
  bool rejected = false;
};

struct ClientOptions {
  /// Keep retrying connect() with exponential backoff (10ms doubling to
  /// 320ms) on ECONNREFUSED/ENOENT for this long before giving up — covers
  /// the "verdictd is still starting" window without sleep-and-hope in
  /// scripts. 0 = single attempt.
  double connect_wait_seconds = 0.0;
  /// Client-side bound on each socket read/write (SO_RCVTIMEO/SO_SNDTIMEO).
  /// A server that stops responding for this long fails the check() with a
  /// timeout error instead of hanging the client. 0 = wait forever.
  double io_timeout_seconds = 0.0;
};

class Client {
 public:
  /// Connects to the daemon's Unix socket, honoring
  /// ClientOptions::connect_wait_seconds. Throws std::runtime_error when the
  /// socket cannot be reached (daemon not running, wrong path).
  explicit Client(const std::string& socket_path, const ClientOptions& options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request for `props` (empty = every LTL property in the model)
  /// and returns the per-property verdicts in server order. `optimize`
  /// false asks the server to skip the opt/ pipeline (verdictc --no-opt);
  /// `abstract` false asks it to skip the abs/ symmetry-reduction pass
  /// (verdictc --no-abs); either field is only emitted when false since true
  /// is the wire default. Throws std::runtime_error on protocol violations,
  /// server "error" responses, I/O timeouts, or a counterexample that does
  /// not rehydrate locally.
  [[nodiscard]] std::vector<ClientVerdict> check(
      const std::string& model_text, const std::vector<std::string>& props,
      core::Engine engine, int max_depth, double timeout_seconds,
      bool optimize = true, bool abstract = true);

 private:
  int fd_ = -1;
  ClientOptions options_;
  FrameDecoder decoder_;
  std::uint64_t next_id_ = 1;

  void send_all(std::string_view data);
  [[nodiscard]] std::string read_chunk();  // one recv(), throws on EOF/error
  /// Next response frame's payload (one JSON object text).
  [[nodiscard]] std::string read_message();
};

}  // namespace verdict::svc
