#include "reads.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <fcntl.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

#include "common.h"
#include "fingerprint/tool.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/query.h"
#include "trace.h"

namespace perfbench {

const std::vector<std::string>& ReadMix::commands() {
  static const std::vector<std::string> commands = [] {
    // Listings from small to large on the calibrated years; their
    // execution times do not follow the size (see class_latency_ms).
    return std::vector<std::string>{
        "QUERY counters",
        "QUERY analyze",
        "QUERY campaigns tool=" + std::string(synscan::fingerprint::to_string(
                                      synscan::fingerprint::Tool::kMirai)),
        "QUERY campaigns min_packets=3000",
        "QUERY campaigns min_packets=1000",
        "QUERY campaigns tool=" + std::string(synscan::fingerprint::to_string(
                                      synscan::fingerprint::Tool::kUnknown)),
        "QUERY campaigns tool=" + std::string(synscan::fingerprint::to_string(
                                      synscan::fingerprint::Tool::kZmap)),
    };
  }();
  return commands;
}

ReadClass ReadMix::class_of(std::size_t command) {
  if (command == 0) return ReadClass::kCounters;
  if (command == 1) return ReadClass::kAnalyze;
  return ReadClass::kCampaigns;
}

ReadMix::Read ReadMix::next() {
  if (in_block_ == kBlock) {
    block_.fill(ReadClass::kCounters);
    std::fill_n(block_.begin() + 14, 5, ReadClass::kCampaigns);
    block_.back() = ReadClass::kAnalyze;
    std::shuffle(block_.begin(), block_.end(), rng_);
    in_block_ = 0;
  }
  const auto cls = block_[in_block_++];
  if (cls == ReadClass::kCounters) return {cls, 0};
  if (cls == ReadClass::kAnalyze) return {cls, 1};
  return {cls, 2 + next_filter_++ % (commands().size() - 2)};
}

namespace {

bool parse(const std::string& command, synscan::server::Request& request) {
  std::string error;
  return synscan::server::parse_request(command, request, error) &&
         request.kind == synscan::server::RequestKind::kQuery;
}

}  // namespace

std::vector<std::string> expected_bodies(const synscan::core::AnalyzedCapture& analysis) {
  std::vector<std::string> bodies;
  for (const auto& command : ReadMix::commands()) {
    synscan::server::Request request;
    std::string body;
    std::string error;
    if (!parse(command, request) ||
        !synscan::server::run_query(analysis, request, body, error)) {
      body.clear();
    }
    bodies.push_back(std::move(body));
  }
  return bodies;
}

std::vector<double> ReadSamples::all_ms() const {
  std::vector<double> all;
  for (const auto& samples : ms) all.insert(all.end(), samples.begin(), samples.end());
  return all;
}

void ReadSamples::append(const ReadSamples& other) {
  for (std::size_t cls = 0; cls < kReadClasses; ++cls) {
    ms[cls].insert(ms[cls].end(), other.ms[cls].begin(), other.ms[cls].end());
  }
  for (std::size_t command = 0; command < command_ms.size(); ++command) {
    command_ms[command].insert(command_ms[command].end(), other.command_ms[command].begin(),
                               other.command_ms[command].end());
  }
  attempted += other.attempted;
  failed += other.failed;
  response_bytes += other.response_bytes;
}

double class_latency_ms(const ReadSamples& samples, ReadClass cls) {
  double sum = 0;
  std::size_t commands = 0;
  for (std::size_t command = 0; command < samples.command_ms.size(); ++command) {
    if (ReadMix::class_of(command) != cls || samples.command_ms[command].empty()) continue;
    sum += median(samples.command_ms[command]);
    ++commands;
  }
  return commands == 0 ? 0 : sum / static_cast<double>(commands);
}

ReadSamples closed_loop_reads(const synscan::core::AnalyzedCapture& analysis,
                              const std::string& report, std::size_t rounds,
                              double* exec_seconds) {
  const auto& commands = ReadMix::commands();
  std::vector<synscan::server::Request> requests(commands.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!parse(commands[i], requests[i])) {
      throw std::logic_error("bad mix command " + commands[i]);
    }
  }
  ReadSamples samples;
  double total = 0;
  std::string body;
  std::string error;
  // Runs `count` queries of `command` back to back under one span and
  // one clock reading; the sample is the mean time per query.
  const auto timed = [&](std::size_t command, std::size_t count, const char* span_name) {
    const auto cls = static_cast<std::size_t>(ReadMix::class_of(command));
    std::size_t ok = 0;
    const auto start = Clock::now();
    {
      const trace::Scope span(span_name);
      for (std::size_t i = 0; i < count; ++i) {
        body.clear();
        if (synscan::server::run_query(analysis, requests[command], body, error)) ++ok;
      }
    }
    const double elapsed = seconds_since(start);
    total += elapsed;
    samples.attempted += count;
    samples.failed += count - ok;
    if (ReadMix::class_of(command) == ReadClass::kAnalyze && body != report) ++samples.failed;
    samples.response_bytes += body.size() * count;
    samples.ms[cls].push_back(elapsed * 1e3 / static_cast<double>(count));
    samples.command_ms[command].push_back(samples.ms[cls].back());
  };
  std::size_t filter = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    // A counters query takes well under a microsecond, so the round's 14
    // are timed together rather than left to clock overhead, after one
    // untimed query: the first after a job or an analyze query pays for
    // cold caches several times over and would set the block's mean.
    // It counts as an op only when it fails.
    body.clear();
    if (!synscan::server::run_query(analysis, requests[0], body, error)) {
      ++samples.attempted;
      ++samples.failed;
    }
    timed(0, 14, "server.exec_counters");
    for (int i = 0; i < 5; ++i) {
      timed(2 + filter++ % (commands.size() - 2), 1, "server.exec_campaigns");
    }
    timed(1, 1, "server.exec_analyze");
  }
  if (exec_seconds != nullptr) *exec_seconds = total;
  return samples;
}

// ---------------------------------------------------------------------------
// Open loop

struct OpenLoop::Connection {
  int fd = -1;
  std::string out;
  std::size_t out_sent = 0;
  synscan::server::FrameDecoder decoder{synscan::server::kMaxResponseBytes};
  struct Pending {
    Clock::time_point scheduled;
    std::size_t command;  ///< mix command index; SIZE_MAX for LOAD
  };
  std::deque<Pending> pending;

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Writes as much buffered output as the socket takes now.
  void flush() {
    while (out_sent < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + out_sent, out.size() - out_sent, MSG_NOSIGNAL);
      if (n > 0) {
        out_sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      throw std::runtime_error("daemon connection died while sending");
    }
    out.clear();
    out_sent = 0;
  }
};

OpenLoop::OpenLoop(const std::string& socket_path, std::size_t readers,
                   std::vector<std::string> expected)
    : expected_(std::move(expected)), readers_(readers) {
  for (std::size_t i = 0; i < readers + 1; ++i) {
    auto conn = std::make_unique<Connection>();
    conn->fd = synscan::server::Client::connect_unix(socket_path).release();
    const int flags = ::fcntl(conn->fd, F_GETFL, 0);
    (void)::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK);
    connections_.push_back(std::move(conn));
  }
}

OpenLoop::~OpenLoop() = default;

StepResult OpenLoop::run_step(double rate, double seconds, std::uint64_t seed,
                              const std::vector<std::string>& load_paths,
                              double load_period_s) {
  constexpr std::size_t kLoad = static_cast<std::size_t>(-1);
  StepResult result;
  result.rate = rate;
  ReadMix mix(seed);
  std::mt19937_64 arrivals(seed ^ 0x9e3779b97f4a7c15ull);
  std::exponential_distribution<double> gap(rate);
  std::vector<std::string> frames;
  for (const auto& command : ReadMix::commands()) {
    frames.push_back(synscan::server::encode_frame(command));
  }

  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const auto start = Clock::now();
  const auto send_deadline = start + to_duration(seconds);
  auto next_send = start;
  auto next_load = start + to_duration(load_period_s / 2);
  std::size_t load_index = 0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  auto& writer = *connections_.back();
  // The generator busy-polls from kSpinLead before each send and for
  // kSpinReply after it, while a quick reply may still come; otherwise
  // it blocks.
  constexpr auto kSpinLead = std::chrono::microseconds(500);
  constexpr auto kSpinReply = std::chrono::milliseconds(1);
  auto last_sent = start;
  const auto replies_due = [&](Clock::time_point now) {
    return completed < sent && now - last_sent < kSpinReply;
  };

  std::vector<pollfd> fds(connections_.size());
  double idle_s = 0;
  std::string payload;
  std::vector<char> buffer(1 << 16);

  const auto on_reply = [&](Connection& conn, const std::string& reply,
                            Clock::time_point now) {
    if (conn.pending.empty()) throw std::runtime_error("unsolicited daemon reply");
    const auto pending = conn.pending.front();
    conn.pending.pop_front();
    const double latency = std::chrono::duration<double>(now - pending.scheduled).count();
    std::string_view body;
    std::string error;
    const bool ok = synscan::server::parse_response(reply, body, error);
    if (pending.command == kLoad) {
      result.load_s.push_back(latency);
      if (!ok) ++result.load_failed;
      return;
    }
    ++completed;
    if (now < send_deadline) {
      result.done_s.push_back(std::chrono::duration<double>(now - start).count());
    }
    const auto cls = static_cast<std::size_t>(ReadMix::class_of(pending.command));
    result.reads.ms[cls].push_back(latency * 1e3);
    result.reads.command_ms[pending.command].push_back(latency * 1e3);
    result.reads.response_bytes += reply.size();
    if (!ok || body != expected_[pending.command]) ++result.reads.failed;
  };

  // Waits up to `wait` for socket events: blocked in ppoll, or, with
  // `spin`, polling without a timeout until an event or the end of the
  // wait, so the generator's own wake-up never enters a latency.
  const auto pump = [&](Clock::duration wait, bool spin) {
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      const auto& conn = *connections_[i];
      fds[i].fd = conn.fd;
      fds[i].events = static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    {
      const trace::Scope span("idle.wait");
      const auto wait_start = Clock::now();
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      timespec timeout{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
      if (!spin) {
        (void)::ppoll(fds.data(), static_cast<nfds_t>(fds.size()), &timeout, nullptr);
      } else {
        const timespec now_only{0, 0};
        while (::ppoll(fds.data(), static_cast<nfds_t>(fds.size()), &now_only, nullptr) == 0 &&
               Clock::now() - wait_start < wait) {
        }
      }
      idle_s += seconds_since(wait_start);
    }
    const trace::Scope span("client.recv");
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      auto& conn = *connections_[i];
      if ((fds[i].revents & POLLOUT) != 0) conn.flush();
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buffer.data(), buffer.size(), 0);
        if (n > 0) {
          conn.decoder.absorb(std::string_view(buffer.data(), static_cast<std::size_t>(n)));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("daemon connection closed");
      }
      const auto now = Clock::now();
      while (conn.decoder.next(payload) == synscan::server::FrameDecoder::Status::kFrame) {
        on_reply(conn, payload, now);
      }
    }
  };

  for (;;) {
    auto now = Clock::now();
    if (now >= send_deadline) break;
    {
      const trace::Scope span("client.send");
      while (next_send <= now && next_send < send_deadline) {
        const auto read = mix.next();
        // Like a client pool: the read connection with the fewest
        // unanswered requests (rotating start breaks ties), so a read
        // waits behind another only when every connection is busy.
        std::size_t pick = sent % readers_;
        for (std::size_t i = 1; i < readers_; ++i) {
          const auto other = (sent + i) % readers_;
          if (connections_[other]->pending.size() < connections_[pick]->pending.size()) {
            pick = other;
          }
        }
        auto& conn = *connections_[pick];
        conn.out += frames[read.command];
        conn.pending.push_back({next_send, read.command});
        conn.flush();
        last_sent = Clock::now();
        result.late_ms.push_back(
            std::chrono::duration<double>(last_sent - next_send).count() * 1e3);
        ++sent;
        next_send += to_duration(gap(arrivals));
      }
      if (!load_paths.empty() && next_load <= now && writer.pending.empty()) {
        const auto& path = load_paths[load_index++ % load_paths.size()];
        writer.out += synscan::server::encode_frame("LOAD " + path);
        writer.pending.push_back({now, kLoad});
        writer.flush();
        next_load = now + to_duration(load_period_s);
      }
    }
    result.max_outstanding = std::max(result.max_outstanding, sent - completed);
    now = Clock::now();
    const auto until = std::min(next_send, send_deadline) - now;
    if (until <= kSpinLead || replies_due(now)) {
      pump(std::clamp<Clock::duration>(until, Clock::duration::zero(), kSpinLead), true);
    } else {
      pump(std::min<Clock::duration>(until - kSpinLead, std::chrono::milliseconds(5)), false);
    }
  }
  result.end_outstanding = sent - completed;
  result.window_throughput = static_cast<double>(completed) / seconds;

  // Drain: every read sent must come back, and an in-flight LOAD too.
  const auto drain_deadline = Clock::now() + std::chrono::seconds(60);
  while ((completed < sent || !writer.pending.empty()) && Clock::now() < drain_deadline) {
    const bool spin = replies_due(Clock::now());
    pump(spin ? Clock::duration(kSpinLead) : std::chrono::milliseconds(5), spin);
  }
  result.busy_s = seconds_since(start) - idle_s;
  result.reads.attempted = sent;
  result.reads.failed += sent - completed;
  result.load_failed += writer.pending.size();
  return result;
}

}  // namespace perfbench
