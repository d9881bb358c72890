#include "svc/frame.h"

#include "obs/trace.h"

namespace verdict::svc {

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kRequest:
      return "request";
    case FrameType::kVerdict:
      return "verdict";
    case FrameType::kDone:
      return "done";
    case FrameType::kError:
      return "error";
  }
  return "?";
}

namespace {

bool known_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kRequest) &&
         raw <= static_cast<std::uint8_t>(FrameType::kError);
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(kFrameMagic0);
  out.push_back(kFrameMagic1);
  out.push_back(static_cast<char>(kFrameVersion));
  out.push_back(static_cast<char>(type));
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<char>(len & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  out.append(payload);
  return out;
}

FrameDecoder::Result FrameDecoder::next() {
  Result result;
  const auto reject = [&](std::string why) {
    obs::count("svc.frames_rejected");
    poisoned_ = std::move(why);
    result.status = Status::kError;
    result.error = poisoned_;
    return result;
  };
  if (!poisoned_.empty()) {
    result.status = Status::kError;
    result.error = poisoned_;
    return result;
  }
  if (buffer_.size() < kFrameHeaderBytes) {
    // Partial headers are still validated byte by byte so a non-frame peer
    // (or a corrupted stream) is rejected on the first wrong byte instead of
    // being buffered until a bogus length field arrives.
    if (!buffer_.empty() && buffer_[0] != kFrameMagic0)
      return reject("bad frame magic");
    if (buffer_.size() >= 2 && buffer_[1] != kFrameMagic1)
      return reject("bad frame magic");
    if (buffer_.size() >= 3 &&
        static_cast<std::uint8_t>(buffer_[2]) != kFrameVersion)
      return reject("unsupported frame version " +
                    std::to_string(static_cast<std::uint8_t>(buffer_[2])) +
                    " (this side speaks " + std::to_string(kFrameVersion) + ")");
    if (buffer_.size() >= 4 && !known_type(static_cast<std::uint8_t>(buffer_[3])))
      return reject("unknown frame type " +
                    std::to_string(static_cast<std::uint8_t>(buffer_[3])));
    return result;  // kNeedMore
  }
  if (buffer_[0] != kFrameMagic0 || buffer_[1] != kFrameMagic1)
    return reject("bad frame magic");
  if (static_cast<std::uint8_t>(buffer_[2]) != kFrameVersion)
    return reject("unsupported frame version " +
                  std::to_string(static_cast<std::uint8_t>(buffer_[2])) +
                  " (this side speaks " + std::to_string(kFrameVersion) + ")");
  const std::uint8_t raw_type = static_cast<std::uint8_t>(buffer_[3]);
  if (!known_type(raw_type))
    return reject("unknown frame type " + std::to_string(raw_type));
  const std::uint32_t len = static_cast<std::uint32_t>(
                                static_cast<std::uint8_t>(buffer_[4])) |
                            (static_cast<std::uint32_t>(
                                 static_cast<std::uint8_t>(buffer_[5]))
                             << 8) |
                            (static_cast<std::uint32_t>(
                                 static_cast<std::uint8_t>(buffer_[6]))
                             << 16) |
                            (static_cast<std::uint32_t>(
                                 static_cast<std::uint8_t>(buffer_[7]))
                             << 24);
  if (static_cast<std::size_t>(len) > max_payload_)
    return reject("frame payload of " + std::to_string(len) +
                  " bytes exceeds the " + std::to_string(max_payload_) +
                  "-byte limit");
  if (buffer_.size() < kFrameHeaderBytes + len) return result;  // kNeedMore
  result.status = Status::kFrame;
  result.frame.type = static_cast<FrameType>(raw_type);
  result.frame.payload = buffer_.substr(kFrameHeaderBytes, len);
  buffer_.erase(0, kFrameHeaderBytes + len);
  return result;
}

}  // namespace verdict::svc
