#include "svc/daemon.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <list>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mdl/vml.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "svc/protocol.h"
#include "svc/stored_trace.h"

namespace verdict::svc {

namespace {

// Write backpressure: a connection whose unsent response bytes pass the
// high watermark stops being read (its requests stop being admitted) until
// the buffer drains below the low watermark. Keeps a slow reader from
// turning the daemon into its unbounded response queue.
constexpr std::size_t kOutbufHighWatermark = 1u << 20;   // 1 MiB
constexpr std::size_t kOutbufLowWatermark = 64u << 10;   // 64 KiB

// Parsed-model LRU entries kept by the daemon. The steady-state workload is
// the same model text pushed on every config change, so re-parsing per
// request is pure waste; keyed by the FULL text (not a hash) so a collision
// can never serve the wrong model.
constexpr std::size_t kModelCacheCapacity = 32;

std::string error_json(const std::string& id, const std::string& message) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("type", "error");
  w.kv("id", id);
  w.kv("message", message);
  w.end_object();
  return w.str();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct Daemon::Impl {
  struct Conn;

  // One inbound request being served: the parsed model (shared with the
  // model cache — it must outlive every pending check, CheckRequest's borrow
  // rule), the per-property tickets, and the in-order fan-in cursor.
  // Completions land on worker threads; the event loop owns everything here
  // except `filled`, which is only written through the completion queue.
  struct RequestCtx {
    Conn* conn = nullptr;  // nulled if the connection dies first
    std::string id;
    std::shared_ptr<const mdl::VmlModel> model;
    std::vector<std::string> names;
    std::vector<PendingCheck> pending;
    std::vector<char> filled;   // per-property: response slot is ready
    std::size_t next = 0;       // next property to send (in request order)
    std::size_t completed = 0;  // callbacks processed
    std::size_t cache_hits = 0;
  };

  struct Conn {
    explicit Conn(std::size_t max_message) : decoder(max_message) {}

    int fd = -1;
    FrameDecoder decoder;
    std::string outbuf;        // unsent response bytes
    std::size_t out_off = 0;   // sent prefix of outbuf
    bool want_read = true;     // false while over the write watermark
    bool peer_gone = false;    // read side saw EOF or error
    bool poisoned = false;     // protocol error: close once outbuf flushed
    bool dead = false;         // write side failed: close asap
    bool in_epoll = false;     // fd currently registered with epoll
    std::uint32_t registered = 0;  // current epoll interest mask
    std::vector<std::shared_ptr<RequestCtx>> requests;

    [[nodiscard]] std::size_t unsent() const { return outbuf.size() - out_off; }
  };

  DaemonOptions options;
  std::unique_ptr<Service> service;
  int listen_fd = -1;
  int epoll_fd = -1;
  int stop_pipe[2] = {-1, -1};  // SIGTERM handler -> loop
  int wake_pipe[2] = {-1, -1};  // worker completions -> loop
  std::atomic<std::uint64_t> connections{0};

  // Everything below is event-loop-thread state — no lock. Workers only
  // touch done_mu/done_queue and the wake pipe.
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  bool draining = false;

  std::mutex done_mu;
  std::vector<std::pair<std::shared_ptr<RequestCtx>, std::size_t>> done_queue;

  struct ModelEntry {
    std::shared_ptr<const mdl::VmlModel> model;
    std::list<std::string>::iterator order;
  };
  std::list<std::string> model_order;  // front = most recent
  std::unordered_map<std::string, ModelEntry> model_cache;

  void event_loop();
  void update_interest(Conn& conn);
  void accept_ready();
  void on_readable(Conn& conn);
  void on_writable(Conn& conn);
  void consume(Conn& conn);
  void queue_message(Conn& conn, FrameType type, std::string_view payload);
  void protocol_error(Conn& conn, const std::string& id, const std::string& message);
  void process_request(Conn& conn, const std::string& payload);
  void drain_completions();
  // allow_close=false when called under a caller that still holds a
  // reference to the Conn (process_request inside the read path) — the
  // event loop's own maybe_close runs right after.
  void flush_ready(const std::shared_ptr<RequestCtx>& ctx, bool allow_close);
  void detach_requests(Conn& conn);
  bool maybe_close(Conn& conn);  // true if the connection was destroyed
  void close_conn(Conn& conn);
  std::shared_ptr<const mdl::VmlModel> parse_model(const std::string& text);
};

Daemon::Daemon(const DaemonOptions& options) : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  if (options.socket_path.empty())
    throw std::runtime_error("verdictd: socket path must not be empty");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("verdictd: socket path too long: " + options.socket_path);
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);

  const auto fail = [&](const char* what) {
    const int err = errno;
    if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
    if (impl_->epoll_fd >= 0) ::close(impl_->epoll_fd);
    for (int fd : impl_->stop_pipe)
      if (fd >= 0) ::close(fd);
    for (int fd : impl_->wake_pipe)
      if (fd >= 0) ::close(fd);
    ::unlink(options.socket_path.c_str());
    throw std::runtime_error("verdictd: " + std::string(what) + ": " +
                             std::strerror(err));
  };

  impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (impl_->listen_fd < 0) fail("socket()");
  ::unlink(options.socket_path.c_str());  // replace a stale socket file
  if (::bind(impl_->listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    fail("bind()");
  if (::listen(impl_->listen_fd, 128) != 0) fail("listen()");
  if (::pipe(impl_->stop_pipe) != 0) fail("pipe()");
  if (::pipe(impl_->wake_pipe) != 0) fail("pipe()");
  // A full wake pipe means the loop has wakeups queued already — workers
  // must never block on it. The read ends are drained with a loop, so they
  // must not block either.
  set_nonblocking(impl_->wake_pipe[1]);
  set_nonblocking(impl_->wake_pipe[0]);
  set_nonblocking(impl_->stop_pipe[0]);
  impl_->epoll_fd = ::epoll_create1(0);
  if (impl_->epoll_fd < 0) fail("epoll_create1()");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = impl_->listen_fd;
  if (::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->listen_fd, &ev) != 0)
    fail("epoll_ctl(listen)");
  ev.data.fd = impl_->stop_pipe[0];
  if (::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->stop_pipe[0], &ev) != 0)
    fail("epoll_ctl(stop)");
  ev.data.fd = impl_->wake_pipe[0];
  if (::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->wake_pipe[0], &ev) != 0)
    fail("epoll_ctl(wake)");

  // The Service replays the segment (if any) here, before we are reachable.
  impl_->service = std::make_unique<Service>(options.service);
}

Daemon::~Daemon() {
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
  if (impl_->epoll_fd >= 0) ::close(impl_->epoll_fd);
  for (int fd : impl_->stop_pipe)
    if (fd >= 0) ::close(fd);
  for (int fd : impl_->wake_pipe)
    if (fd >= 0) ::close(fd);
  ::unlink(impl_->options.socket_path.c_str());
}

Service& Daemon::service() { return *impl_->service; }

const std::string& Daemon::socket_path() const { return impl_->options.socket_path; }

std::uint64_t Daemon::connections_served() const {
  return impl_->connections.load(std::memory_order_relaxed);
}

void Daemon::request_stop() {
  // Only async-signal-safe calls here: this runs from the SIGTERM handler.
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(impl_->stop_pipe[1], &byte, 1);
}

void Daemon::serve() {
  impl_->event_loop();
  impl_->service->drain();
}

void Daemon::Impl::event_loop() {
  epoll_event events[64];
  for (;;) {
    if (draining && conns.empty()) return;
    const int n = ::epoll_wait(epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == stop_pipe[0]) {
        char buf[16];
        while (::read(stop_pipe[0], buf, sizeof(buf)) > 0) {}
        if (!draining) {
          draining = true;
          ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
          // Stop reading everywhere; admitted requests finish and flush.
          std::vector<Conn*> open;
          open.reserve(conns.size());
          for (auto& [cfd, conn] : conns) open.push_back(conn.get());
          for (Conn* conn : open)
            if (!maybe_close(*conn)) update_interest(*conn);
        }
        continue;
      }
      if (fd == wake_pipe[0]) {
        char buf[256];
        while (::read(wake_pipe[0], buf, sizeof(buf)) > 0) {}
        drain_completions();
        continue;
      }
      if (fd == listen_fd) {
        accept_ready();
        continue;
      }
      const auto it = conns.find(fd);
      if (it == conns.end()) continue;  // closed earlier this wakeup batch
      Conn& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) conn.peer_gone = true;
      if (events[i].events & EPOLLOUT) on_writable(conn);
      if (conns.find(fd) == conns.end()) continue;  // on_writable closed it
      if (events[i].events & EPOLLIN) on_readable(conn);
      if (conns.find(fd) == conns.end()) continue;
      if (!maybe_close(conn)) update_interest(conn);
    }
  }
}

void Daemon::Impl::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or transient accept failure — epoll will re-arm
    }
    connections.fetch_add(1, std::memory_order_relaxed);
    obs::count("svc.connections");
    auto conn = std::make_unique<Conn>(options.max_message_bytes);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conn->in_epoll = true;
    conn->registered = EPOLLIN;
    conns.emplace(fd, std::move(conn));
  }
}

void Daemon::Impl::update_interest(Conn& conn) {
  std::uint32_t want = 0;
  if (!conn.peer_gone && !conn.poisoned && !conn.dead && !draining &&
      conn.want_read)
    want |= EPOLLIN;
  if (conn.unsent() > 0 && !conn.dead) want |= EPOLLOUT;
  if (want == 0) {
    // Deregister rather than arm a zero mask: a fully closed peer reports
    // EPOLLHUP/EPOLLERR level-triggered regardless of the interest mask, so
    // an events==0 registration would spin the loop at 100% CPU until this
    // connection's in-flight checks finish. Completions that queue response
    // bytes re-add the fd below.
    if (conn.in_epoll) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
      conn.in_epoll = false;
      conn.registered = 0;
    }
    return;
  }
  if (conn.in_epoll && want == conn.registered) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd, conn.in_epoll ? EPOLL_CTL_MOD : EPOLL_CTL_ADD,
                  conn.fd, &ev) != 0)
    return;
  conn.in_epoll = true;
  conn.registered = want;
}

void Daemon::Impl::on_readable(Conn& conn) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.peer_gone = true;
      break;
    }
    if (n == 0) {
      conn.peer_gone = true;
      break;
    }
    conn.decoder.feed(chunk, static_cast<std::size_t>(n));
    consume(conn);
    if (conn.poisoned || conn.dead) return;
    // Backpressure: past the high watermark, stop reading (and therefore
    // stop admitting this connection's requests) until the flush catches up.
    if (conn.unsent() > kOutbufHighWatermark) {
      conn.want_read = false;
      return;
    }
  }
}

void Daemon::Impl::consume(Conn& conn) {
  // A framing error (bad magic — e.g. a JSON line instead of a frame —
  // version skew, unknown type, oversized length) was already counted in
  // `svc.frames_rejected` by the decoder; answer it and close.
  for (;;) {
    FrameDecoder::Result result = conn.decoder.next();
    if (result.status == FrameDecoder::Status::kNeedMore) return;
    if (result.status == FrameDecoder::Status::kError) {
      protocol_error(conn, "", result.error);
      return;
    }
    if (result.frame.type != FrameType::kRequest) {
      obs::count("svc.frames_rejected");
      protocol_error(conn, "",
                     std::string("unexpected ") + frame_type_name(result.frame.type) +
                         " frame from client (only request frames flow this way)");
      return;
    }
    process_request(conn, result.frame.payload);
    if (conn.poisoned || conn.dead) return;
  }
}

void Daemon::Impl::queue_message(Conn& conn, FrameType type,
                                 std::string_view payload) {
  if (conn.dead) return;
  conn.outbuf += encode_frame(type, payload);
  on_writable(conn);  // opportunistic immediate flush
}

void Daemon::Impl::protocol_error(Conn& conn, const std::string& id,
                                  const std::string& message) {
  queue_message(conn, FrameType::kError, error_json(id, message));
  // Framing/limit violations poison the connection: the stream position is
  // no longer trustworthy, so flush the error and close.
  conn.poisoned = true;
}

void Daemon::Impl::on_writable(Conn& conn) {
  while (conn.unsent() > 0) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data() + conn.out_off,
                             conn.unsent(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.dead = true;  // peer unreachable; responses have nowhere to go
      break;
    }
    conn.out_off += static_cast<std::size_t>(n);
  }
  if (conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
  } else if (conn.out_off > (1u << 16)) {
    conn.outbuf.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  if (!conn.want_read && conn.unsent() < kOutbufLowWatermark) conn.want_read = true;
}

std::shared_ptr<const mdl::VmlModel> Daemon::Impl::parse_model(
    const std::string& text) {
  const auto it = model_cache.find(text);
  if (it != model_cache.end()) {
    model_order.splice(model_order.begin(), model_order, it->second.order);
    obs::count("svc.model_cache.hit");
    return it->second.model;
  }
  obs::count("svc.model_cache.miss");
  auto model = std::make_shared<mdl::VmlModel>(mdl::parse_vml(text));  // throws
  model_order.push_front(text);
  model_cache.emplace(text, ModelEntry{model, model_order.begin()});
  if (model_cache.size() > kModelCacheCapacity) {
    model_cache.erase(model_order.back());
    model_order.pop_back();
  }
  return model;
}

void Daemon::Impl::process_request(Conn& conn, const std::string& payload) {
  WireRequest req;
  const std::string bad = parse_request(payload, req);
  const std::string& id = req.id;
  const auto reply_error = [&](const std::string& message) {
    queue_message(conn, FrameType::kError, error_json(id, message));
  };
  if (!bad.empty()) return reply_error(bad);

  std::shared_ptr<const mdl::VmlModel> model;
  try {
    model = parse_model(req.model);
  } catch (const std::exception& error) {
    return reply_error(std::string("model error: ") + error.what());
  }

  // Select properties: the request's list, or every LTL property. CTL
  // properties are BDD-checked client-side (docs/service.md) — naming one
  // here is an error, not a silent skip.
  std::vector<std::string> names;
  if (req.props) {
    for (const std::string& p : *req.props) {
      if (model->ctl_properties.contains(p) && !model->ltl_properties.contains(p))
        return reply_error("property '" + p + "' is CTL; verdictd serves LTL only");
      if (!model->ltl_properties.contains(p))
        return reply_error("unknown property '" + p + "'");
    }
    names = std::move(*req.props);
  } else {
    for (const auto& [name, property] : model->ltl_properties) names.push_back(name);
  }

  if (obs::TraceSink* s = obs::sink())
    s->event("svc.request_line")
        .attr("id", id)
        .attr("props", names.size())
        .attr("engine", engine_name(req.engine))
        .emit();

  auto ctx = std::make_shared<RequestCtx>();
  ctx->conn = &conn;
  ctx->id = id;
  ctx->model = model;  // keeps the TransitionSystem alive (borrow rule)
  ctx->names = std::move(names);
  ctx->pending.reserve(ctx->names.size());
  ctx->filled.assign(ctx->names.size(), 0);
  conn.requests.push_back(ctx);

  // Fan every property onto the service pool. Completions are marshalled
  // back to this loop through the wake pipe; nothing blocks here, which is
  // what lets requests from MANY connections coalesce into service batches.
  const util::Deadline deadline = req.timeout > 0
                                     ? util::Deadline::after_seconds(req.timeout)
                                     : util::Deadline::never();
  for (std::size_t i = 0; i < ctx->names.size(); ++i) {
    CheckRequest request;
    request.system = &model->system;
    request.property = model->ltl_properties.at(ctx->names[i]);
    request.engine = req.engine;
    request.max_depth = req.depth;
    request.optimize = req.optimize;
    request.abstract = req.abstract;
    request.deadline = deadline;
    request.on_complete = [this, ctx, i] {
      {
        std::lock_guard<std::mutex> lock(done_mu);
        done_queue.emplace_back(ctx, i);
      }
      const char byte = 'c';
      [[maybe_unused]] const ssize_t n = ::write(wake_pipe[1], &byte, 1);
    };
    ctx->pending.push_back(service->submit(request));
  }
  if (ctx->names.empty()) {
    // Degenerate but legal: a model with no LTL properties. Complete now.
    flush_ready(ctx, /*allow_close=*/false);
  }
}

void Daemon::Impl::drain_completions() {
  std::vector<std::pair<std::shared_ptr<RequestCtx>, std::size_t>> done;
  {
    std::lock_guard<std::mutex> lock(done_mu);
    done.swap(done_queue);
  }
  for (auto& [ctx, index] : done) {
    ctx->filled[index] = 1;
    ++ctx->completed;
    // If an earlier entry in this batch closed the connection, close_conn's
    // detach already nulled ctx->conn — flush_ready is a no-op then.
    flush_ready(ctx, /*allow_close=*/true);
  }
}

void Daemon::Impl::flush_ready(const std::shared_ptr<RequestCtx>& ctx,
                               bool allow_close) {
  Conn* conn = ctx->conn;
  if (conn == nullptr) return;  // connection died; completions just drain

  // Send verdicts in request order as they become ready.
  while (ctx->next < ctx->pending.size() && ctx->filled[ctx->next]) {
    const std::size_t i = ctx->next++;
    // Filled: wait() returns once the worker releases the admission slot.
    const CheckResponse response = ctx->pending[i].wait();
    if (response.cache_hit) ++ctx->cache_hits;

    WireVerdict v;
    v.prop = ctx->names[i];
    v.verdict = response.outcome.verdict;
    v.engine = response.outcome.stats.engine;
    v.message = response.outcome.message;
    v.seconds = response.outcome.stats.seconds;
    v.solver_seconds = response.outcome.stats.solver_seconds;
    v.solver_checks = response.outcome.stats.solver_checks;
    v.depth_reached = response.outcome.stats.depth_reached;
    v.cache_hit = response.cache_hit;
    v.rejected = response.rejected;
    if (response.outcome.counterexample)
      v.counterexample_json = trace_to_json(*response.outcome.counterexample);
    queue_message(*conn, FrameType::kVerdict, wire_verdict_line(ctx->id, v));
  }

  if (ctx->next == ctx->pending.size()) {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("type", "done");
    w.kv("id", ctx->id);
    w.kv("served", ctx->pending.size());
    w.kv("cache_hits", ctx->cache_hits);
    w.end_object();
    queue_message(*conn, FrameType::kDone, w.str());
    ctx->conn = nullptr;
    std::erase(conn->requests, ctx);
  }
  if (!allow_close) return;  // the event loop closes/re-arms after the read
  if (!maybe_close(*conn)) update_interest(*conn);
}

void Daemon::Impl::detach_requests(Conn& conn) {
  for (const std::shared_ptr<RequestCtx>& ctx : conn.requests) {
    ctx->conn = nullptr;
    // Nobody is listening anymore: cancel what has not finished. The
    // completion callbacks still fire and drain harmlessly.
    for (std::size_t i = 0; i < ctx->pending.size(); ++i)
      if (!ctx->filled[i]) ctx->pending[i].cancel();
  }
  conn.requests.clear();
}

bool Daemon::Impl::maybe_close(Conn& conn) {
  const bool idle = conn.requests.empty() && conn.unsent() == 0;
  const bool should_close = conn.dead || ((conn.peer_gone || conn.poisoned ||
                                           draining) &&
                                          idle);
  if (!should_close) return false;
  close_conn(conn);
  return true;
}

void Daemon::Impl::close_conn(Conn& conn) {
  detach_requests(conn);
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  const int fd = conn.fd;
  ::close(fd);
  conns.erase(fd);  // destroys conn
}

}  // namespace verdict::svc
