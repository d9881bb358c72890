// verdictd's network layer: an epoll Unix-domain server over svc::Service.
//
// The Daemon is a library class so tests can run a real server in-process
// (tests/svc_test.cpp exercises it with concurrent socket clients under
// TSan); tools/verdictd.cpp is a thin main() around it. Lifecycle:
//
//   svc::Daemon daemon({.socket_path = "/tmp/verdictd.sock"});
//   std::thread t([&] { daemon.serve(); });   // or serve() on the main thread
//   ...
//   daemon.request_stop();                    // async-signal-safe (SIGTERM)
//   t.join();                                 // returns after graceful drain
//
// serve() is ONE event loop thread multiplexing every connection with epoll
// — nonblocking accept/read/write, a per-connection state machine, and
// write backpressure (a connection whose response buffer passes the high
// watermark stops being read until it flushes below the low watermark).
// No thread is parked per connection; all verification runs on the
// Service's worker pool, and completions are marshalled back to the loop
// through a wake pipe, so one connection with N properties and N
// connections with one property load the machine the same way.
//
// The wire is length-prefixed binary frames (svc/frame.h) carrying the JSON
// objects docs/service.md specifies. A connection whose bytes are not a
// frame (bad magic, version or type) or that declares a payload beyond
// `max_message_bytes` gets one `error` frame, counts in
// `svc.frames_rejected`, and is closed — never buffered without bound.
//
// request_stop() makes serve() stop accepting and stop reading, finishes
// every admitted request, flushes the response buffers, and drains the
// Service — in-flight verdicts complete before serve() returns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "svc/frame.h"
#include "svc/service.h"

namespace verdict::svc {

struct DaemonOptions {
  /// Path of the AF_UNIX socket. A stale file at this path is replaced.
  std::string socket_path;
  /// Upper bound on one inbound frame payload. A larger declared length
  /// gets an `error` response and the connection is closed (counted in
  /// `svc.frames_rejected`).
  std::size_t max_message_bytes = kDefaultMaxMessageBytes;
  ServiceOptions service;
};

class Daemon {
 public:
  /// Binds and listens (the socket is accept-ready — clients may connect
  /// before serve() runs). Throws std::runtime_error on socket errors.
  explicit Daemon(const DaemonOptions& options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocking event loop; returns after request_stop() completes a graceful
  /// drain. Call at most once.
  void serve();

  /// Signals serve() to shut down. Async-signal-safe (one write to a
  /// self-pipe) — this is the SIGTERM handler's entire job.
  void request_stop();

  [[nodiscard]] Service& service();
  [[nodiscard]] const std::string& socket_path() const;
  [[nodiscard]] std::uint64_t connections_served() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace verdict::svc
