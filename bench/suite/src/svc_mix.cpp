// svc_mix: an open-loop traffic mix against the shipped verdictd binary.
//
// Every request carries one generated model: kGroups rollout groups of
// kNodes replicated nodes, each with its own concurrency cap p and one
// quorum property "at least q nodes serving". Known answer: a group's
// property holds iff q <= kNodes - p. Every model draws its (p, q) pairs from
// the same fixed mix (three holding, three violated), shuffled by the seed,
// so every request costs the same wherever the seed lands. Module names carry
// a per-model tag, so two models never share a property cone; the tags do
// not depend on the seed, for the reason paper.cpp gives.
//
// The mix, 80/10/10 in every block of ten requests:
//   warm  an exact repeat of one of kWarmModels models checked during set-up
//         (frame, parse cache, fingerprint, queue, batch window, LRU);
//   edit  a warm model with one group's p changed so that its verdict flips,
//         never repeated in a 20 s run (the incremental-reuse path: five
//         cones carry over);
//   cold  a model of a fresh tag (session batch compute plus segment append).
//
// One thread drives the load at kRate requests per second, pipelining
// binary frames over up to kConnections connections, and times each request
// from the moment it was due. Set-up (daemon start until ready, plus the
// warm set) is done three times and reported each time.
//
// A traced run replays the same stream through an in-process svc::Service
// configured like the daemon, once untraced and once traced: the daemon's
// counters and spans live in its own process, while the replay exposes them
// to obs::counters_snapshot() and an obs::TraceSink.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/checker.h"
#include "inc/reuse_engine.h"
#include "layers.h"
#include "mdl/vml.h"
#include "obs/json.h"
#include "svc/fingerprint.h"
#include "svc/frame.h"
#include "svc/protocol.h"
#include "svc/service.h"
#include "svc/stored_trace.h"
#include "util/stopwatch.h"

namespace vbench {

namespace {

using namespace verdict;

constexpr int kGroups = 6;
constexpr int kNodes = 6;
constexpr std::size_t kWarmModels = 12;
constexpr double kRate = 22.0;
constexpr std::size_t kConnections = 4;
constexpr int kSetups = 3;
constexpr double kRequestTimeout = 20.0;
/// Admission limit (properties admitted but unfinished). At the daemon's
/// default of 64, cold and edit batches on every worker now and then hold
/// warm hits in the queue for ~0.3 s, and about one request in 5000 had
/// properties rejected; the runs must not fail, so the limit is 256.
constexpr std::size_t kQueueLimit = 256;
constexpr std::size_t kBlock = 10;  // 8 warm, 1 edit, 1 cold
/// (p, q) of the groups: q <= kNodes - p holds, q = kNodes - p + 1 fails at
/// depth p.
constexpr std::array<std::pair<int, int>, kGroups> kGroupMix = {
    {{1, 5}, {2, 4}, {3, 3}, {1, 6}, {2, 5}, {3, 4}}};

struct Model {
  std::string tag;
  std::array<std::pair<int, int>, kGroups> groups;  // (p, q)
  std::string text;
  std::string expected;  // 'H' or 'V' per property, in name order q0..q5
};

std::string property_name(int g) { return "q" + std::to_string(g); }

std::string serving_sum(const std::string& module) {
  std::string sum;
  for (int n = 0; n < kNodes; ++n)
    sum += (n != 0 ? " + " : "") + ("ite(" + module + ".s" + std::to_string(n) + " != 1, 1, 0)");
  return sum;
}

void render(Model& m) {
  std::string text;
  std::string props;
  m.expected.clear();
  for (int g = 0; g < kGroups; ++g) {
    const auto [p, q] = m.groups[static_cast<std::size_t>(g)];
    const std::string module = m.tag + "g" + std::to_string(g);
    text += "module " + module + " {\n";
    for (int n = 0; n < kNodes; ++n)
      text += "  var s" + std::to_string(n) + " : 0..2;\n";
    for (int n = 0; n < kNodes; ++n) text += "  init s" + std::to_string(n) + " = 0;\n";
    for (int n = 0; n < kNodes; ++n) {
      std::string down;  // the other nodes that are down
      for (int o = 0; o < kNodes; ++o)
        if (o != n)
          down += (down.empty() ? "" : " + ") + ("ite(s" + std::to_string(o) + " = 1, 1, 0)");
      const std::string s = "s" + std::to_string(n);
      text += "  rule down" + std::to_string(n) + " when " + s + " = 0 & (" + down + ") < " +
              std::to_string(p) + " { " + s + "' = 1; }\n";
      text += "  rule up" + std::to_string(n) + " when " + s + " = 1 { " + s + "' = 2; }\n";
    }
    text += "  stutter always;\n}\n";
    props += "  ltl " + property_name(g) + " \"G (" + serving_sum(module) + " >= " +
             std::to_string(q) + ")\";\n";
    m.expected += q <= kNodes - p ? 'H' : 'V';
  }
  m.text = text + "system {\n  schedule interleaving;\n" + props + "}\n";
}

Model make_model(const std::string& tag, std::mt19937_64& rng) {
  Model m;
  m.tag = tag;
  m.groups = kGroupMix;
  std::shuffle(m.groups.begin(), m.groups.end(), rng);
  render(m);
  return m;
}

struct Request {
  std::size_t model = 0;
  std::string cls;      // warm, edit, cold
  double due = 0.0;     // seconds after the load started
  double sent = -1.0;
  double done = -1.0;   // when the answer completed; < 0 while unanswered
  bool finished = false;
  std::vector<svc::WireVerdict> verdicts;
  std::string error;
};

/// The seeded inputs of one run: the warm set, then the load.
struct Plan {
  std::vector<Model> models;  // the warm set first
  std::vector<Request> warmup;
  std::vector<Request> load;
};

Plan make_plan(std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  Plan plan;
  for (std::size_t w = 0; w < kWarmModels; ++w)
    plan.models.push_back(make_model("w" + std::to_string(w), rng));
  for (std::size_t w = 0; w < kWarmModels; ++w) {
    plan.warmup.emplace_back();
    plan.warmup.back().model = w;
    plan.warmup.back().cls = "warmup";
  }

  // The edits: each moves one group's p so that its (p, q) is again a pair of
  // the mix, which flips that property's verdict (four per warm model), so
  // every edit costs about the same. In seeded order; a run longer than
  // kBlock * edits.size() / kRate seconds (21.8 s) wraps around.
  std::vector<std::array<int, 3>> edits;  // (model, group, new p)
  for (std::size_t w = 0; w < kWarmModels; ++w)
    for (int g = 0; g < kGroups; ++g)
      for (int p = 1; p <= 3; ++p) {
        const auto [old_p, q] = plan.models[w].groups[static_cast<std::size_t>(g)];
        if (p != old_p && std::count(kGroupMix.begin(), kGroupMix.end(), std::pair{p, q}) != 0)
          edits.push_back({static_cast<int>(w), g, p});
      }
  std::shuffle(edits.begin(), edits.end(), rng);

  const std::size_t total = static_cast<std::size_t>(kRate * seconds);
  std::size_t next_edit = 0;
  std::size_t next_cold = 0;
  std::uniform_int_distribution<std::size_t> pick_warm(0, kWarmModels - 1);
  for (std::size_t block = 0; block * kBlock < total; ++block) {
    std::array<const char*, kBlock> classes = {"warm", "warm", "warm", "warm", "warm",
                                               "warm", "warm", "warm", "edit", "cold"};
    std::shuffle(classes.begin(), classes.end(), rng);
    for (std::size_t i = 0; i < kBlock && block * kBlock + i < total; ++i) {
      Request r;
      r.cls = classes[i];
      r.due = static_cast<double>(block * kBlock + i) / kRate;
      if (r.cls == "warm") {
        r.model = pick_warm(rng);
      } else if (r.cls == "edit") {
        const auto [w, g, p] = edits[next_edit++ % edits.size()];
        Model m = plan.models[static_cast<std::size_t>(w)];
        m.groups[static_cast<std::size_t>(g)].first = p;
        render(m);
        r.model = plan.models.size();
        plan.models.push_back(std::move(m));
      } else {
        r.model = plan.models.size();
        plan.models.push_back(make_model("c" + std::to_string(next_cold++), rng));
      }
      plan.load.push_back(r);
    }
  }
  return plan;
}

std::string request_payload(const Model& model, std::size_t id) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("id", std::to_string(id));
  w.kv("model", model.text);
  w.kv("engine", "auto");
  w.kv("depth", 50);
  w.kv("timeout", kRequestTimeout);
  w.end_object();
  return w.str();
}

// --- the daemon ----------------------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket, const std::string& segment) {
    const std::string queue_limit = std::to_string(kQueueLimit);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::execl(binary.c_str(), "verdictd", "--socket", socket.c_str(), "--segment-file",
              segment.c_str(), "--queue-limit", queue_limit.c_str(), "--quiet",
              static_cast<char*>(nullptr));
      std::fprintf(stderr, "verdict-bench: cannot run %s: %s\n", binary.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
  }
  ~Daemon() { stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Peak resident set so far (VmHWM), in MB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
  }

  /// SIGTERM (a graceful drain), SIGKILL after 10 s; reaps the process.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    util::Stopwatch watch;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (watch.elapsed_seconds() > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

class Connection {
 public:
  /// Connects, retrying while the daemon starts up, then goes non-blocking.
  Connection(const std::string& path, double wait_s) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    util::Stopwatch watch;
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) break;
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      if ((err != ENOENT && err != ECONNREFUSED) || watch.elapsed_seconds() > wait_s)
        throw std::runtime_error("cannot connect to verdictd at " + path + ": " +
                                 std::strerror(err));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool pending() const { return off_ < out_.size(); }
  void queue(const std::string& bytes) { out_ += bytes; }

  void flush() {
    while (off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + off_, out_.size() - off_, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        throw std::runtime_error("write to verdictd failed: " + std::string(std::strerror(errno)));
      }
      off_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    off_ = 0;
  }

  /// Reads what is available; calls `on_frame` for every complete frame.
  template <typename OnFrame>
  void receive(OnFrame&& on_frame) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error("read from verdictd failed: " + std::string(std::strerror(errno)));
      }
      if (n == 0) throw std::runtime_error("verdictd closed a connection");
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
    for (;;) {
      svc::FrameDecoder::Result r = decoder_.next();
      if (r.status == svc::FrameDecoder::Status::kError)
        throw std::runtime_error("bad frame from verdictd: " + r.error);
      if (r.status == svc::FrameDecoder::Status::kNeedMore) return;
      on_frame(r.frame.payload);
    }
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t off_ = 0;
  svc::FrameDecoder decoder_;
};

/// Sends every request at its due time, round robin over `conns`, and
/// collects the answers until all are in or `give_up_s` has passed. With
/// `max_outstanding` > 0 a request also waits until fewer than that many are
/// unanswered (set-up stays under the daemon's admission limit).
void drive(std::vector<std::unique_ptr<Connection>>& conns, std::vector<Request>& requests,
           const std::vector<Model>& models, double give_up_s,
           std::size_t max_outstanding = 0) {
  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    frames.push_back(svc::encode_frame(svc::FrameType::kRequest,
                                       request_payload(models[requests[i].model], i)));
  util::Stopwatch clock;
  std::size_t next = 0;
  std::size_t finished = 0;
  const auto on_frame = [&](const std::string& payload) {
    const obs::JsonValue message = obs::parse_json(payload);
    const std::size_t id = std::stoul(message["id"].string);
    if (id >= requests.size()) throw std::runtime_error("answer to an unknown request");
    Request& r = requests[id];
    const std::string& type = message["type"].string;
    if (type == "verdict") {
      std::optional<svc::WireVerdict> v = svc::wire_verdict_from_json(message);
      if (!v) throw std::runtime_error("malformed verdict frame");
      r.verdicts.push_back(std::move(*v));
      return;
    }
    if (type == "error") r.error = message["message"].string;
    if (type == "done") r.done = clock.elapsed_seconds();
    if (!r.finished) ++finished;
    r.finished = true;
  };
  while (finished < requests.size()) {
    double now = clock.elapsed_seconds();
    if (now > give_up_s) break;
    for (; next < requests.size() && requests[next].due <= now &&
           (max_outstanding == 0 || next - finished < max_outstanding);
         ++next) {
      conns[next % conns.size()]->queue(frames[next]);
      requests[next].sent = now;
    }
    for (auto& c : conns) c->flush();
    std::vector<pollfd> fds;
    for (auto& c : conns)
      fds.push_back({c->fd(), static_cast<short>(POLLIN | (c->pending() ? POLLOUT : 0)), 0});
    now = clock.elapsed_seconds();
    const bool can_send = next < requests.size() &&
                          (max_outstanding == 0 || next - finished < max_outstanding);
    const double wait = std::max(0.0, (can_send ? requests[next].due : give_up_s) - now);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR)
      throw std::runtime_error("poll failed");
    for (std::size_t i = 0; i < fds.size(); ++i)
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) conns[i]->receive(on_frame);
  }
}

// --- known answers ---------------------------------------------------------------

char letter(core::Verdict v) {
  switch (v) {
    case core::Verdict::kHolds:
      return 'H';
    case core::Verdict::kViolated:
      return 'V';
    default:
      return '?';
  }
}

/// Parses each model once in this process, for replaying its violations.
class LocalModels {
 public:
  explicit LocalModels(const std::vector<Model>& models) : models_(models) {}
  const mdl::VmlModel& get(std::size_t index) {
    auto it = parsed_.find(index);
    if (it == parsed_.end())
      it = parsed_.emplace(index, mdl::parse_vml(models_[index].text)).first;
    return it->second;
  }

 private:
  const std::vector<Model>& models_;
  std::map<std::size_t, mdl::VmlModel> parsed_;
};

/// Judges one answered request against the known answers, replaying every
/// violation (rehydrated from the wire) through core::confirm_counterexample.
/// A counterexample already confirmed for the same model is not replayed
/// again.
Row judge_wire(const Request& r, const std::vector<Model>& models, LocalModels& local,
               std::map<std::string, bool>& confirmed) {
  Row row;
  row.instance = r.cls;
  row.expected = models[r.model].expected;
  row.late_s = r.sent >= 0 ? r.sent - r.due : 0.0;
  row.wall_s = r.done >= 0 ? r.done - r.due : 0.0;
  if (!r.finished || r.done < 0) {
    row.verdict = r.finished ? "error: " + r.error : "unanswered";
    return row;
  }
  std::string seen(kGroups, '?');
  bool all_decided = true;
  for (const svc::WireVerdict& v : r.verdicts) {
    if (v.prop.size() < 2 || v.prop[0] != 'q') continue;
    const std::size_t g = std::stoul(v.prop.substr(1));
    if (g >= seen.size()) continue;
    seen[g] = v.rejected ? 'R' : letter(v.verdict);
    if (v.verdict != core::Verdict::kViolated) continue;
    const std::string key = std::to_string(r.model) + "/" + v.prop + "/" + v.counterexample_json;
    auto it = confirmed.find(key);
    if (it == confirmed.end()) {
      util::Stopwatch watch;
      bool ok = false;
      if (!v.counterexample_json.empty()) {
        const mdl::VmlModel& model = local.get(r.model);
        if (std::optional<ts::Trace> trace = svc::trace_from_json(v.counterexample_json)) {
          core::CheckOutcome outcome;
          outcome.verdict = core::Verdict::kViolated;
          outcome.counterexample = std::move(*trace);
          ok = core::confirm_counterexample(model.system, model.ltl_properties.at(v.prop),
                                            outcome);
        }
      }
      row.confirm_s += watch.elapsed_seconds();
      it = confirmed.emplace(key, ok).first;
    }
    if (!it->second) row.wrong = true;
  }
  for (const char c : seen) all_decided = all_decided && (c == 'H' || c == 'V');
  row.verdict = seen + (row.wrong ? " (replay failed)" : "");
  row.decided = all_decided;
  row.wrong = row.wrong || (all_decided && seen != row.expected);
  return row;
}

// --- the daemon run ----------------------------------------------------------------

std::size_t connection_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, kConnections);
}

void run_daemon_mix(const Options& options, double seconds, Reporter& out) {
  Plan plan = make_plan(options.seed, seconds);
  const std::string dir = options.work_dir + "/svc" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string socket = dir + "/d.sock";
  const std::string segment = dir + "/d.seg";
  LocalModels local(plan.models);
  std::map<std::string, bool> confirmed;

  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Connection>> conns;
  for (int setup = 0; setup < kSetups; ++setup) {
    conns.clear();
    daemon.reset();
    std::filesystem::remove(socket);
    std::filesystem::remove(segment);
    std::vector<Request> warmup = plan.warmup;
    out.plan(warmup.size());
    util::Stopwatch watch;
    daemon = std::make_unique<Daemon>(options.verdictd, socket, segment);
    for (std::size_t i = 0; i < connection_count(); ++i)
      conns.push_back(std::make_unique<Connection>(socket, 10.0));
    drive(conns, warmup, plan.models, 2 * kRequestTimeout, connection_count());
    out.setup(watch.elapsed_seconds());
    for (const Request& r : warmup) out.row(judge_wire(r, plan.models, local, confirmed));
  }

  out.plan(plan.load.size());
  drive(conns, plan.load, plan.models, seconds + 2 * kRequestTimeout);
  out.value("peak_rss_mb", daemon->peak_rss_mb());
  conns.clear();
  daemon.reset();
  std::filesystem::remove_all(dir);
  for (const Request& r : plan.load) out.row(judge_wire(r, plan.models, local, confirmed));
}

// --- the in-process replay ---------------------------------------------------------

struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> remaining;  // properties not answered yet, per request
  std::vector<double> done;    // when the last one was, on the phase clock
  std::size_t finished = 0;
};

/// Replays the load through an in-process svc::Service set up like the
/// daemon (all hardware threads, 2 ms batch window, a segment file and the
/// incremental-reuse hook). Traced, a LayerCapture covers the load (not the
/// set-up), every layer call of the request path is timed from here and
/// each request's wall time is attributed.
std::vector<Row> replay(const Plan& plan, const std::string& segment, bool traced,
                        std::map<std::string, double>& values, double& setup_s) {
  std::vector<Request> requests = plan.load;
  std::unique_ptr<LayerCapture> capture;
  util::Stopwatch watch;
  const auto now = [&] { return capture ? capture->now() : watch.elapsed_seconds(); };
  svc::ServiceOptions service_options;
  service_options.batch_window_seconds = 0.002;
  service_options.queue_limit = kQueueLimit;
  service_options.segment_file = segment;
  svc::Service service(service_options);
  inc::ReuseEngine reuse(service.cache());
  reuse.rebuild_from_cache();
  service.set_reuse(&reuse);

  std::map<std::string, std::shared_ptr<const mdl::VmlModel>> model_cache;
  Completions state;
  state.remaining.assign(requests.size(), 0);
  state.done.assign(requests.size(), -1.0);
  std::vector<std::vector<svc::PendingCheck>> pending(requests.size());
  std::vector<std::shared_ptr<const mdl::VmlModel>> held(requests.size());
  std::vector<double> submitted(requests.size(), 0.0);
  std::vector<double> frontend(requests.size(), 0.0);

  double frame_s = 0.0, parse_s = 0.0, fingerprint_s = 0.0;
  std::size_t frames = 0, parses = 0, fingerprints = 0;

  const auto submit = [&](std::size_t i) {
    const Model& model = plan.models[requests[i].model];
    const double begin = now();
    double t = begin;
    svc::FrameDecoder decoder;
    decoder.feed(svc::encode_frame(svc::FrameType::kRequest, request_payload(model, i)));
    svc::FrameDecoder::Result frame = decoder.next();
    if (frame.status != svc::FrameDecoder::Status::kFrame)
      throw std::runtime_error("request frame did not decode: " + frame.error);
    const obs::JsonValue message = obs::parse_json(frame.frame.payload);
    double t_next = now();
    frame_s += t_next - t;
    ++frames;
    t = t_next;
    const std::string& text = message["model"].string;
    auto it = model_cache.find(text);
    if (it == model_cache.end()) {
      it = model_cache.emplace(text, std::make_shared<const mdl::VmlModel>(mdl::parse_vml(text)))
               .first;
      t_next = now();
      parse_s += t_next - t;
      ++parses;
      t = t_next;
    }
    held[i] = it->second;
    const mdl::VmlModel& vml = *held[i];
    for (const auto& [name, property] : vml.ltl_properties)
      (void)svc::fingerprint_request(vml.system, property, core::Engine::kAuto, 50);
    t_next = now();
    fingerprint_s += t_next - t;
    fingerprints += vml.ltl_properties.size();
    frontend[i] = t_next - begin;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      state.remaining[i] = static_cast<int>(vml.ltl_properties.size());
    }
    submitted[i] = t_next;
    for (const auto& [name, property] : vml.ltl_properties) {
      svc::CheckRequest request;
      request.system = &vml.system;
      request.property = property;
      request.max_depth = 50;
      request.deadline = util::Deadline::after_seconds(kRequestTimeout);
      request.on_complete = [&state, &now, i] {
        const double at = now();
        std::lock_guard<std::mutex> lock(state.mu);
        if (--state.remaining[i] == 0) {
          state.done[i] = at;
          ++state.finished;
          state.cv.notify_all();
        }
      };
      pending[i].push_back(service.submit(request));
    }
  };

  // Set-up: the warm set, as many models at a time as the daemon run has
  // connections.
  {
    const double t0 = now();
    std::vector<svc::PendingCheck> checks;
    for (const Request& r : plan.warmup) {
      const std::string& text = plan.models[r.model].text;
      const auto model = std::make_shared<const mdl::VmlModel>(mdl::parse_vml(text));
      model_cache.emplace(text, model);
      for (const auto& [name, property] : model->ltl_properties) {
        svc::CheckRequest request;
        request.system = &model->system;
        request.property = property;
        request.max_depth = 50;
        request.deadline = util::Deadline::after_seconds(kRequestTimeout);
        checks.push_back(service.submit(request));
      }
      if (checks.size() >= connection_count() * kGroups || &r == &plan.warmup.back()) {
        for (svc::PendingCheck& c : checks) (void)c.wait();
        checks.clear();
      }
    }
    setup_s = now() - t0;
  }

  if (traced) capture = std::make_unique<LayerCapture>();
  const double start = now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double due = start + requests[i].due;
    while (now() < due)
      std::this_thread::sleep_for(std::chrono::duration<double>(std::min(due - now(), 0.01)));
    requests[i].sent = now();
    submit(i);
    requests[i].sent -= start;
  }
  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.cv.wait_for(lock, std::chrono::duration<double>(2 * kRequestTimeout),
                      [&] { return state.finished == requests.size(); });
  }
  service.drain();

  std::vector<Interval> cover;
  if (capture) {
    for (const auto& [name, v] : capture->finish_window(cover)) values[name] += v;
    values["svc.frame_decode_us"] = frames != 0 ? 1e6 * frame_s / static_cast<double>(frames) : 0;
    values["mdl.parse_ms"] = parses != 0 ? 1e3 * parse_s / static_cast<double>(parses) : 0;
    values["svc.fingerprint_us"] =
        fingerprints != 0 ? 1e6 * fingerprint_s / static_cast<double>(fingerprints) : 0;
  }

  std::vector<Row> rows;
  std::vector<double> queue_waits;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const Model& model = plan.models[r.model];
    Row row;
    row.instance = r.cls;
    row.expected = model.expected;
    row.late_s = r.sent - r.due;
    const bool answered = state.done[i] >= 0;
    row.wall_s = answered ? state.done[i] - start - r.due : 0.0;
    std::string seen(kGroups, '?');
    double queue = 0.0;
    std::vector<Interval> waits;
    std::size_t g = 0;
    for (const auto& [name, property] : held[i]->ltl_properties) {
      if (!answered || g >= pending[i].size()) break;
      const svc::CheckResponse response = pending[i][g].wait();
      const std::size_t group = std::stoul(name.substr(1));
      seen[group] = response.rejected ? 'R' : letter(response.outcome.verdict);
      queue = std::max(queue, response.queue_seconds);
      queue_waits.push_back(response.queue_seconds);
      waits.push_back({submitted[i], submitted[i] + response.queue_seconds});
      if (response.outcome.violated()) {
        util::Stopwatch confirm;
        if (!core::confirm_counterexample(held[i]->system, property, response.outcome))
          row.wrong = true;
        row.confirm_s += confirm.elapsed_seconds();
      }
      ++g;
    }
    row.decided = answered && seen.find_first_not_of("HV") == std::string::npos;
    row.verdict = answered ? seen + (row.wrong ? " (replay failed)" : "") : "unanswered";
    row.wrong = row.wrong || (row.decided && seen != row.expected);
    if (capture && answered) {
      waits.insert(waits.end(), cover.begin(), cover.end());
      const double attributed = row.late_s + frontend[i] +
                                covered(submitted[i], state.done[i], merged(waits));
      row.layers["svc.frontend_s"] = frontend[i];
      row.layers["svc.queue_s"] = queue;
      row.layers["trace.wall_s"] = row.wall_s;
      row.layers["trace.attributed_s"] = std::min(attributed, row.wall_s);
    }
    rows.push_back(std::move(row));
  }
  if (capture) values["svc.queue_wait_ms"] = 1e3 * median(queue_waits);
  return rows;
}

void run_replay(const Options& options, double seconds, bool traced, Reporter& out) {
  const Plan plan = make_plan(options.seed, seconds);
  const std::string dir = options.work_dir + "/svc" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  out.plan(plan.load.size());
  std::map<std::string, double> values;
  double setup_s = 0.0;
  const std::vector<Row> rows = replay(plan, dir + "/r.seg", traced, values, setup_s);
  std::filesystem::remove_all(dir);
  out.setup(setup_s);
  for (const auto& [name, v] : values) out.value(name, v);
  for (const Row& row : rows) out.row(row);
}

}  // namespace

void run_svc_mix(const Options& options, double seconds, bool traced, Reporter& out) {
  if (options.trace) {
    run_replay(options, seconds, traced, out);
  } else {
    run_daemon_mix(options, seconds, out);
  }
}

}  // namespace vbench
