#include "svc/client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/json.h"
#include "svc/protocol.h"
#include "svc/stored_trace.h"

namespace verdict::svc {

namespace {

void set_io_timeout(int fd, double seconds) {
  if (seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Client::Client(const std::string& socket_path, const ClientOptions& options)
    : options_(options) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("verdictc: socket path too long: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  // Retry connect() with exponential backoff while the daemon is starting:
  // ENOENT (socket file not created yet) and ECONNREFUSED (bound but not
  // listening, or a stale file) are the two "try again shortly" errnos;
  // anything else is a real error and fails immediately.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(options.connect_wait_seconds));
  std::chrono::milliseconds backoff{10};
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
      throw std::runtime_error("verdictc: socket(): " + std::string(std::strerror(errno)));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0)
      break;
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    const bool retryable = err == ECONNREFUSED || err == ENOENT;
    if (!retryable || std::chrono::steady_clock::now() + backoff > give_up)
      throw std::runtime_error("verdictc: cannot connect to " + socket_path + ": " +
                               std::strerror(err));
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds{320});
  }
  set_io_timeout(fd_, options.io_timeout_seconds);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_all(std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw std::runtime_error("verdictc: write to verdictd timed out");
      throw std::runtime_error("verdictc: write to verdictd failed: " +
                               std::string(std::strerror(errno)));
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::string Client::read_chunk() {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw std::runtime_error(
            "verdictc: verdictd did not respond within the I/O timeout");
      throw std::runtime_error("verdictc: read from verdictd failed: " +
                               std::string(std::strerror(errno)));
    }
    if (n == 0)
      throw std::runtime_error("verdictc: verdictd closed the connection mid-request");
    return std::string(chunk, static_cast<std::size_t>(n));
  }
}

std::string Client::read_message() {
  for (;;) {
    FrameDecoder::Result result = decoder_.next();
    if (result.status == FrameDecoder::Status::kError)
      throw std::runtime_error("verdictc: bad frame from verdictd: " + result.error);
    if (result.status == FrameDecoder::Status::kFrame) {
      if (result.frame.type == FrameType::kRequest)
        throw std::runtime_error(
            "verdictc: request frame from verdictd (server/client roles reversed?)");
      return std::move(result.frame.payload);
    }
    decoder_.feed(read_chunk());
  }
}

std::vector<ClientVerdict> Client::check(const std::string& model_text,
                                         const std::vector<std::string>& props,
                                         core::Engine engine, int max_depth,
                                         double timeout_seconds, bool optimize,
                                         bool abstract) {
  const std::string id = std::to_string(next_id_++);
  obs::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("model", model_text);
  if (!props.empty()) {
    w.key("props");
    w.begin_array();
    for (const std::string& p : props) w.value(p);
    w.end_array();
  }
  w.kv("engine", engine_name(engine));
  w.kv("depth", max_depth);
  if (timeout_seconds > 0) w.kv("timeout", timeout_seconds);
  if (!optimize) w.kv("optimize", false);
  if (!abstract) w.kv("abstract", false);
  w.end_object();

  send_all(encode_frame(FrameType::kRequest, w.str()));

  std::vector<ClientVerdict> verdicts;
  for (;;) {
    obs::JsonValue line;
    try {
      line = obs::parse_json(read_message());
    } catch (const std::invalid_argument& error) {
      throw std::runtime_error("verdictc: bad response from verdictd: " +
                               std::string(error.what()));
    }
    const std::string& type = line["type"].string;
    if (type == "error")
      throw std::runtime_error("verdictd: " + line["message"].string);
    if (line["id"].string != id)
      throw std::runtime_error("verdictc: response for unknown request id '" +
                               line["id"].string + "'");
    if (type == "done") break;
    if (type != "verdict")
      throw std::runtime_error("verdictc: unexpected response type '" + type + "'");

    const std::optional<WireVerdict> wire = wire_verdict_from_json(line);
    if (!wire)
      throw std::runtime_error("verdictc: malformed verdict line from verdictd");

    ClientVerdict v;
    v.prop = wire->prop;
    v.cache_hit = wire->cache_hit;
    v.rejected = wire->rejected;
    v.outcome.verdict = wire->verdict;
    v.outcome.message = wire->message;
    v.outcome.stats.engine = wire->engine;
    v.outcome.stats.seconds = wire->seconds;
    v.outcome.stats.solver_seconds = wire->solver_seconds;
    v.outcome.stats.solver_checks = wire->solver_checks;
    v.outcome.stats.depth_reached = wire->depth_reached;
    if (!wire->counterexample_json.empty()) {
      // The caller parsed the same model text, so every variable the trace
      // names exists locally; failure here means the two sides disagree
      // about the model, which must surface, not silently drop the trace.
      std::optional<ts::Trace> trace = trace_from_json(wire->counterexample_json);
      if (!trace)
        throw std::runtime_error("verdictc: counterexample for '" + wire->prop +
                                 "' does not match the local model");
      v.outcome.counterexample = std::move(*trace);
    }
    verdicts.push_back(std::move(v));
  }
  return verdicts;
}

}  // namespace verdict::svc
