// Mmap'd persistent verdict segment: the store behind the in-process LRU.
//
// Every definitive verdict the service computes or carries over is appended
// to an mmap'd append-only log *when it is stored*, so a restart — graceful
// or after a crash (SIGKILL, OOM) — replays the log and the warm set
// survives. Lookup order per daemon is LRU -> segment (docs/service.md).
//
// On-disk layout (native-endian; a segment is per-host state, not an
// interchange format):
//
//   offset  size  field
//   0       8     magic "VSEGMENT"
//   8       4     version (kSegmentVersion = 1)
//   12      4     reserved (zero)
//   16      ...   records, each 8-byte aligned:
//             u32  marker (kRecordMarker) — zero here means "end of log"
//             u32  payload length
//             u64  key.hi
//             u64  key.lo
//             u32  FNV-1a 32 checksum of the payload
//             u32  reserved (zero)
//             len  payload: one verdict-cache-v2 JSON line (cached_to_json)
//             pad  zeros to the next 8-byte boundary
//
// Crash safety is scan-time, not write-time: open() walks records until the
// first zero marker, truncated record, or checksum mismatch and treats that
// as the end of the log (a torn tail from a mid-append crash is discarded,
// counted under svc.segment.skipped). Later records for the same key win, so
// an append is also how an entry is superseded. cached_from_json re-applies
// the cacheability rule on every read — a corrupted or tampered segment can
// drop entries, never plant indefinite verdicts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "svc/verdict_cache.h"

namespace verdict::svc {

inline constexpr char kSegmentMagic[8] = {'V', 'S', 'E', 'G', 'M', 'E', 'N', 'T'};
inline constexpr std::uint32_t kSegmentVersion = 1;
inline constexpr std::uint32_t kRecordMarker = 0x56524543;  // "VREC"

class SegmentStore {
 public:
  /// Opens (creating if absent) the segment at `path`, mmaps it, and indexes
  /// every valid record. Throws std::runtime_error when the file cannot be
  /// opened/mapped or carries a foreign magic/version; a valid header with a
  /// torn record tail is NOT an error (the tail is discarded).
  explicit SegmentStore(const std::string& path);
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Latest entry appended for `key`, or nullopt. Thread-safe.
  [[nodiscard]] std::optional<CachedVerdict> lookup(const Fingerprint& key);

  /// Appends one definitive verdict (non-cacheable values are refused and
  /// dropped, mirroring VerdictCache::insert). Thread-safe. Returns false
  /// when the value was refused or the append failed (disk full); a failed
  /// append never corrupts earlier records.
  bool append(const Fingerprint& key, const CachedVerdict& value);

  /// Calls `fn` for the latest record of every key (used to warm the LRU at
  /// daemon start). Not concurrent-append safe; call before serving.
  void for_each(const std::function<void(const Fingerprint&, const CachedVerdict&)>& fn);

  /// Distinct keys indexed.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] const std::string& path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace verdict::svc
