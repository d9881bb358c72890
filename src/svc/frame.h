// The verdictd binary wire framing: length-prefixed frames over a stream.
//
// This is the only wire verdictd speaks. A frame carries one JSON object
// (svc/protocol.h; schema in docs/service.md) behind a typed, versioned,
// length-prefixed header, so the reader never scans payload bytes for a
// delimiter and knows the message type before parsing it.
//
//   offset  size  field
//   0       2     magic 0x56 0x46 ("VF")
//   2       1     version (kFrameVersion = 1)
//   3       1     type (FrameType)
//   4       4     payload length, little-endian
//   8       len   payload (UTF-8 JSON object, no trailing newline)
//
// The decoder is incremental (feed() arbitrary chunks, next() yields
// complete frames) and adversarial-input hardened: bad magic, version skew,
// unknown types, and oversized declared lengths are hard errors — the
// connection is poisoned, not resynchronized, because a framing error means
// the two sides already disagree about where messages start. A peer that
// sends anything but frames (a JSON line, say) fails on its first byte. Every
// rejected frame bumps the `svc.frames_rejected` counter.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace verdict::svc {

inline constexpr char kFrameMagic0 = 0x56;  // 'V'
inline constexpr char kFrameMagic1 = 0x46;  // 'F'
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Default cap on one inbound frame payload. Large
/// enough for any realistic model text, small enough that a malicious or
/// broken peer cannot make the server buffer without bound.
inline constexpr std::size_t kDefaultMaxMessageBytes = 8u << 20;  // 8 MiB

enum class FrameType : std::uint8_t {
  kRequest = 1,  // client -> server: one request object
  kVerdict = 2,  // server -> client: one per-property verdict object
  kDone = 3,     // server -> client: stream terminator for one request
  kError = 4,    // server -> client: request failure
};

/// Wire name for diagnostics ("request", "verdict", ...).
[[nodiscard]] const char* frame_type_name(FrameType type);

struct Frame {
  FrameType type = FrameType::kRequest;
  std::string payload;
};

/// Renders header + payload (one JSON object text, no trailing newline).
[[nodiscard]] std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame parser for one connection. Not thread-safe (one
/// decoder per connection, owned by whoever reads the socket).
class FrameDecoder {
 public:
  enum class Status {
    kNeedMore,  // no complete frame buffered yet
    kFrame,     // `frame` holds the next decoded frame
    kError,     // unrecoverable framing error; `error` says why
  };

  struct Result {
    Status status = Status::kNeedMore;
    Frame frame;
    std::string error;
  };

  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxMessageBytes)
      : max_payload_(max_payload) {}

  /// Appends raw bytes received from the peer.
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }
  void feed(std::string_view data) { buffer_.append(data); }

  /// Decodes the next frame out of the buffered bytes. Call repeatedly until
  /// kNeedMore (frames pipelined into one read all come out). After kError
  /// the decoder stays poisoned: every further call returns the same error.
  [[nodiscard]] Result next();

  /// Bytes buffered but not yet consumed (for read-limit enforcement).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::size_t max_payload_;
  std::string poisoned_;  // non-empty once a framing error was seen
};

}  // namespace verdict::svc
