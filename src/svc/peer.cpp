#include "svc/peer.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/json.h"
#include "obs/trace.h"
#include "svc/frame.h"

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

/// One blocking connect attempt — no retry loop: a peer that is down fails
/// with ECONNREFUSED/ENOENT instantly and the caller's backoff takes over.
int dial_unix(const std::string& path, double io_timeout_seconds) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  set_io_timeout(fd, io_timeout_seconds);
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // timeout or hard error — caller degrades
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

// --- PeerExchange ------------------------------------------------------------

struct PeerExchange::Impl {
  struct PeerConn {
    std::mutex mu;
    int fd = -1;
    FrameDecoder decoder;
    std::chrono::steady_clock::time_point next_dial{};  // epoch = dial freely
  };

  Ring ring;
  std::string self;
  PeerOptions options;
  std::unordered_map<std::string, std::unique_ptr<PeerConn>> peers;

  ~Impl() {
    for (auto& [id, pc] : peers)
      if (pc->fd >= 0) ::close(pc->fd);
  }

  /// Drops the connection and arms the redial backoff. Call with pc.mu held.
  void mark_unreachable(PeerConn& pc) {
    if (pc.fd >= 0) ::close(pc.fd);
    pc.fd = -1;
    pc.next_dial = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(options.retry_backoff_seconds));
    obs::count("svc.peer.unreachable");
  }

  /// Ensures pc.fd is connected. Call with pc.mu held. A peer inside its
  /// backoff window fails fast — one counter bump, zero syscalls.
  bool ensure_connected(PeerConn& pc, const std::string& path) {
    if (pc.fd >= 0) return true;
    if (std::chrono::steady_clock::now() < pc.next_dial) {
      obs::count("svc.peer.unreachable");
      return false;
    }
    pc.fd = dial_unix(path, options.io_timeout_seconds);
    if (pc.fd < 0) {
      mark_unreachable(pc);
      return false;
    }
    pc.decoder = FrameDecoder();
    return true;
  }

  /// Reads frames until one of `type` arrives. Call with pc.mu held.
  std::optional<std::string> read_response(PeerConn& pc, FrameType type) {
    for (;;) {
      for (;;) {
        FrameDecoder::Result result = pc.decoder.next();
        if (result.status == FrameDecoder::Status::kError) return std::nullopt;
        if (result.status == FrameDecoder::Status::kNeedMore) break;
        if (result.frame.type == type) return std::move(result.frame.payload);
        // Anything else on a peer connection is protocol confusion; bail.
        return std::nullopt;
      }
      char chunk[4096];
      const ssize_t n = ::recv(pc.fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return std::nullopt;  // peer closed, timed out, or errored
      }
      pc.decoder.feed(chunk, static_cast<std::size_t>(n));
    }
  }
};

PeerExchange::PeerExchange(Ring ring, std::string self_id, const PeerOptions& options)
    : impl_(std::make_unique<Impl>()) {
  if (!ring.index_of(self_id))
    throw std::invalid_argument("PeerExchange: self id '" + self_id +
                                "' is not in the cluster spec");
  impl_->ring = std::move(ring);
  impl_->self = std::move(self_id);
  impl_->options = options;
  for (const std::string& node : impl_->ring.nodes())
    if (node != impl_->self)
      impl_->peers.emplace(node, std::make_unique<Impl::PeerConn>());
}

PeerExchange::~PeerExchange() = default;

bool PeerExchange::owns(const Fingerprint& key) const {
  return impl_->ring.owner_id(key) == impl_->self;
}

std::optional<CachedVerdict> PeerExchange::fetch(const Fingerprint& key) {
  const std::string& owner = impl_->ring.owner_id(key);
  if (owner == impl_->self) return std::nullopt;
  obs::count("svc.peer.get");
  Impl::PeerConn& pc = *impl_->peers.at(owner);
  std::lock_guard<std::mutex> lock(pc.mu);
  if (!impl_->ensure_connected(pc, owner)) return std::nullopt;

  obs::JsonWriter w;
  w.begin_object();
  w.kv("key", key.str());
  w.end_object();
  if (!send_all(pc.fd, encode_frame(FrameType::kPeerGet, w.str()))) {
    impl_->mark_unreachable(pc);
    return std::nullopt;
  }
  std::optional<std::string> payload = impl_->read_response(pc, FrameType::kPeerGet);
  if (!payload) {
    impl_->mark_unreachable(pc);
    return std::nullopt;
  }

  obs::JsonValue doc;
  try {
    doc = obs::parse_json(*payload);
  } catch (const std::exception&) {
    impl_->mark_unreachable(pc);
    return std::nullopt;
  }
  if (!doc.is_object() || doc["hit"].kind != obs::JsonValue::Kind::kBool ||
      !doc["hit"].boolean || !doc.has("entry")) {
    obs::count("svc.peer.miss");
    return std::nullopt;
  }
  std::optional<std::pair<Fingerprint, CachedVerdict>> entry =
      cached_from_json(obs::to_json(doc["entry"]));
  if (!entry || entry->first != key) {
    // A peer answering for the wrong key (or with a non-cacheable entry) is
    // a protocol fault, not a miss worth trusting — drop the connection.
    impl_->mark_unreachable(pc);
    return std::nullopt;
  }
  obs::count("svc.peer.hit");
  return std::move(entry->second);
}

void PeerExchange::publish(const Fingerprint& key, const CachedVerdict& value) {
  if (!cacheable(value)) return;
  const std::string& owner = impl_->ring.owner_id(key);
  if (owner == impl_->self) return;
  Impl::PeerConn& pc = *impl_->peers.at(owner);
  std::lock_guard<std::mutex> lock(pc.mu);
  if (!impl_->ensure_connected(pc, owner)) return;
  if (!send_all(pc.fd, encode_frame(FrameType::kPeerPut, cached_to_json(key, value)))) {
    impl_->mark_unreachable(pc);
    return;
  }
  obs::count("svc.peer.put");
}

const Ring& PeerExchange::ring() const { return impl_->ring; }
const std::string& PeerExchange::self_id() const { return impl_->self; }

}  // namespace verdict::svc
