// Shard-to-shard verdict exchange.
//
// PeerExchange is the outermost store tier (LRU -> segment -> peer): when a
// daemon misses locally on a fingerprint the ring says a *different* shard
// owns, it asks that shard over the binary framing (svc/frame.h) before
// falling back to computing. Two frame types, both carrying the
// verdict-cache-v2 JSON line format (svc/verdict_cache.h):
//
//   PEER_GET  request  {"key":"<32-hex fingerprint>"}
//   PEER_GET  response {"hit":true,"entry":<v2 object>} | {"hit":false,...}
//   PEER_PUT  one-way  <v2 object>   (no response frame — fire and forget)
//
// The serving side (svc/daemon.cpp) answers PEER_GET from its LRU and
// segment ONLY: it never computes and never fetches from a further peer, so
// a peer lookup is one bounded hop and cannot deadlock two daemons waiting
// on each other. PEER_PUT deliberately has no acknowledgement: a shard that
// computed a verdict it does not own pushes a copy to the owner and moves
// on; losing the push costs a future recompute, nothing else.
//
// Degradation is the design center, not an afterthought: every peer failure
// (dial refused, I/O timeout, bad frame) closes the connection, arms a
// redial backoff, bumps `svc.peer.unreachable`, and reports a miss — the
// calling daemon then computes locally. A dead shard NEVER surfaces as a
// client-visible error (tests/verdictd_cli_test.sh kills one mid-run).
//
// Clients route themselves: `verdictc --shard-of` names a key's owner, and
// any shard also answers keys it does not own, through PEER_GET to the owner.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "svc/ring.h"
#include "svc/verdict_cache.h"

namespace verdict::svc {

struct PeerOptions {
  /// Per-call socket send/recv timeout. Generous next to an LRU lookup the
  /// peer serves from memory, tiny next to the solver run a hit saves.
  double io_timeout_seconds = 2.0;
  /// After a failure, how long to report misses without redialing the peer
  /// (so a dead shard costs one failed syscall per window, not per request).
  double retry_backoff_seconds = 1.0;
};

class PeerExchange {
 public:
  /// `self_id` must be one of `ring.nodes()` — it marks which shard this
  /// process is, so fetch/publish skip keys this process already owns.
  PeerExchange(Ring ring, std::string self_id, const PeerOptions& options = {});
  ~PeerExchange();

  PeerExchange(const PeerExchange&) = delete;
  PeerExchange& operator=(const PeerExchange&) = delete;

  /// True when the ring assigns `key` to this process.
  [[nodiscard]] bool owns(const Fingerprint& key) const;

  /// PEER_GET from the ring owner of `key`. Returns nullopt on local
  /// ownership, peer miss, or ANY peer failure (degrade to local compute).
  [[nodiscard]] std::optional<CachedVerdict> fetch(const Fingerprint& key);

  /// PEER_PUT a computed verdict to its ring owner (no-op when this process
  /// owns the key or the value is non-cacheable). Best-effort and one-way.
  void publish(const Fingerprint& key, const CachedVerdict& value);

  [[nodiscard]] const Ring& ring() const;
  [[nodiscard]] const std::string& self_id() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace verdict::svc
