// servebench_loadgen — the serving benchmark's single load-generator
// process (servebench/run.py starts it; see servebench/README.md).
//
//   servebench_loadgen drive  --registry F --port P --server-pid PID
//                             --protocol 1|2 --seed S --rate R
//                             --closed-s C --open-s O
//                             [--corrupt-expected 0|1] [service flags]
//   servebench_loadgen layers --registry F --protocol 1|2 --seed S
//                             --seconds T [service flags]
//
// The fleet registry is `ropuf_cli registry-build`'s. drive talks to a
// running ropuf_serve over loopback TCP: a closed loop (one thread per
// connection, each keeping kWindow authentications in flight), then an
// open loop (one thread for all connections, seeded exponential gaps at
// --rate in total); workload.h fixes the run's shape.
// It checks every answer against the in-process verdict for the same
// request and registry, samples the server's CPU time from /proc around
// the closed loop, and prints one JSON object. layers (layers.cpp) times
// each layer's public calls on the same request stream. The service flags
// (--rate-burst, --detector, ...) are ropuf_serve's, parsed by the same
// code, so the reference verdicts use the server's exact options.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "auth/auth.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "workload.h"

namespace servebench {
namespace {

// ------------------------------------------------------------ socket I/O

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ROPUF_REQUIRE(fd >= 0, std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    ROPUF_REQUIRE(false, std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Owns one connection's socket and stream buffers.
class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(connect_loopback(port)) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Protocol v2 hello exchange (blocking, before the timed loop).
  void negotiate_v2() {
    const std::string hello = net::encode_client_hello(net::kWireMaxVersion);
    ROPUF_REQUIRE(::send(fd_, hello.data(), hello.size(), MSG_NOSIGNAL) ==
                      static_cast<ssize_t>(hello.size()),
                  "hello send failed");
    while (true) {
      const net::ExtractResult got = net::try_extract_frame(in);
      if (got.status == net::ExtractResult::Status::kFrame) {
        ROPUF_REQUIRE(got.frame.type == net::FrameType::kServerHello &&
                          net::decode_hello_payload(got.frame.payload) ==
                              net::kWireVersionV2,
                      "server did not pin protocol v2");
        in.erase(0, got.frame.frame_bytes);
        return;
      }
      ROPUF_REQUIRE(got.status == net::ExtractResult::Status::kNeedMore,
                    "defective hello answer");
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      ROPUF_REQUIRE(n > 0, "connection closed during hello");
      in.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void set_nonblocking() {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ROPUF_REQUIRE(flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0,
                  "fcntl O_NONBLOCK failed");
  }

  /// Writes as much of `out` as the socket takes; true if bytes moved.
  bool flush() {
    bool moved = false;
    while (!out.empty()) {
      const ssize_t n = ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out.erase(0, static_cast<std::size_t>(n));
        moved = true;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      ROPUF_REQUIRE(false, std::string("send: ") + std::strerror(errno));
    }
    return moved;
  }

  /// Reads what is available into `in`; true if bytes arrived.
  bool fill() {
    bool moved = false;
    char chunk[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        in.append(chunk, static_cast<std::size_t>(n));
        moved = true;
        if (static_cast<std::size_t>(n) < sizeof(chunk)) return moved;
        continue;
      }
      if (n == 0) ROPUF_REQUIRE(false, "server closed the connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) return moved;
      if (errno == EINTR) continue;
      ROPUF_REQUIRE(false, std::string("recv: ") + std::strerror(errno));
    }
  }

  /// Blocks until the socket is readable (or writable with output queued).
  void wait(int timeout_ms) {
    pollfd p{fd_, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    ::poll(&p, 1, timeout_ms);
  }

  std::string in;
  std::string out;

 private:
  int fd_;
};

// ------------------------------------------------------------- one phase

/// Timing of one phase, shared by its connection threads. Requests due
/// (open loop) or answered (closed loop) inside [t_start, t_end) are
/// measured; before t_start is warm-up; nothing new is issued after t_end.
struct PhasePlan {
  bool open_loop = false;
  std::int64_t t_begin = 0;
  std::int64_t t_start = 0;
  std::int64_t t_end = 0;
  std::int64_t drain_ns = 10'000'000'000;  ///< answer deadline after t_end
  std::size_t windows = 1;                 ///< measurement sub-windows
  double rate_per_connection = 0.0;        ///< open-loop requests per second
};

/// One answered v2 exchange, kept compact for the post-phase check: the
/// tag is recomputed from the pool's key, the nonce is the one the server
/// actually sent.
struct ProofRecord {
  std::uint64_t request_id = 0;
  auth::Nonce nonce{};
  std::uint32_t pool_index = 0;
  std::uint32_t response_bits = 0;
  std::uint32_t distance = 0;  ///< saturated; v2 answers carry 0
  net::WireStatus status = net::WireStatus::kReject;
};

struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t denied = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  /// Closed loop: (time, served answers so far) after each read that
  /// served any. Answers arrive in bursts of whatever a server sweep
  /// verified, so a 50 ms window holds a whole number of bursts; rates are
  /// read off this curve, interpolated between bursts, instead.
  std::vector<std::pair<std::int64_t, std::uint64_t>> served_curve;
  std::vector<std::vector<double>> window_latency_us;   ///< open loop
  std::vector<double> lag_us;                           ///< open loop
  std::deque<ProofRecord> proofs;                       ///< v2
};

struct Slot {
  bool busy = false;
  std::uint64_t seq = 0;
  std::size_t pool_index = 0;
  std::int64_t due = 0;
  auth::Nonce nonce{};
};

/// Requests in flight per connection are bounded by this ring; an open
/// loop whose backlog outgrows it has lost the server and fails the run.
constexpr std::size_t kRing = 1u << 16;

/// The prover's tag: HMAC over the server's nonce with the key the prover
/// recovered, or all zeros (a forger's tag) without one.
auth::Tag proof_tag(const service::ProofIntent& intent, const auth::Nonce& nonce,
                    std::uint64_t request_id) {
  return intent.has_key ? auth::prove(intent.key, nonce, request_id, intent.device_id)
                        : auth::Tag{};
}

bool is_failure(net::WireStatus status) {
  return net::wire_status_is_transport(status) ||
         status == net::WireStatus::kRateLimited ||
         status == net::WireStatus::kBudgetExhausted;
}

/// Drives one connection through one phase.
class ConnectionRunner {
 public:
  /// The connection cycles pool entries [slice_begin, slice_end): slices
  /// of different connections never overlap, so however the connections'
  /// speeds drift apart they never replay each other's recent requests.
  ConnectionRunner(Connection& connection, const Pool& pool, const PhasePlan& plan,
                   std::size_t slice_begin, std::size_t slice_end, std::uint64_t gap_seed,
                   PhaseStats& stats)
      : conn_(connection),
        pool_(pool),
        plan_(plan),
        slice_begin_(slice_begin),
        slice_end_(slice_end),
        cursor_(slice_begin),
        gaps_(gap_seed),
        stats_(stats),
        slots_(kRing),
        next_due_(plan.t_begin) {
    stats_.window_latency_us.assign(plan.windows, {});
    if (!plan.open_loop) stats_.served_curve.emplace_back(plan.t_begin, 0);
    if (plan.open_loop) {
      // Sample storage is reserved up front: growing a vector of millions
      // of samples mid-phase would stall the sender for milliseconds.
      const double per_window = plan.rate_per_connection *
                                static_cast<double>(plan.t_end - plan.t_start) / 1e9 /
                                static_cast<double>(plan.windows);
      for (auto& window : stats_.window_latency_us) {
        window.reserve(static_cast<std::size_t>(per_window * 1.5) + 64);
      }
      stats_.lag_us.reserve(static_cast<std::size_t>(per_window * 1.5 *
                                                     static_cast<double>(plan.windows)));
    }
  }

  /// One pass: issue what is due, write, read and check answers. Returns
  /// whether bytes moved; sets done() once the phase is over for this
  /// connection.
  bool step() {
    std::int64_t now = now_ns();
    if (plan_.open_loop) {
      while (next_due_ <= now && next_due_ < plan_.t_end) {
        issue(next_due_, now);
        next_due_ += static_cast<std::int64_t>(next_gap());
      }
    } else {
      while (in_flight_ < kWindow && now < plan_.t_end) issue(now, now);
    }
    bool progress = conn_.flush();
    if (conn_.fill()) {
      progress = true;
      now = now_ns();
      consume(now);
    }
    const bool issuing = plan_.open_loop ? next_due_ < plan_.t_end : now < plan_.t_end;
    if (!issuing && in_flight_ == 0) {
      done_ = true;
    } else if (now > plan_.t_end + plan_.drain_ns) {
      // No answer before the deadline: each missing answer is a failure,
      // and misses every latency limit.
      for (Slot& slot : slots_) {
        if (slot.busy) complete(slot, net::WireResponse{net::WireStatus::kOverloaded, 0, 0}, now);
      }
      done_ = true;
    }
    return progress;
  }

  bool done() const { return done_; }
  Connection& connection() { return conn_; }

 private:
  double next_gap() {
    const double u = gaps_.uniform();
    return -std::log1p(-u) / plan_.rate_per_connection * 1e9;
  }

  void issue(std::int64_t due, std::int64_t now) {
    const std::uint64_t seq = next_seq_++;
    Slot& slot = slots_[seq % kRing];
    ROPUF_REQUIRE(!slot.busy, "more than 65536 requests in flight on one connection");
    slot.busy = true;
    slot.seq = seq;
    slot.pool_index = cursor_;
    slot.due = due;
    cursor_ = cursor_ + 1 == slice_end_ ? slice_begin_ : cursor_ + 1;
    if (pool_.protocol == 1) {
      conn_.out += pool_.frames[slot.pool_index];
    } else {
      conn_.out += net::encode_request_frame_v2(
          seq + 1, pool_.intents[slot.pool_index].device_id);
    }
    ++in_flight_;
    ++stats_.attempted;
    if (plan_.open_loop && due >= plan_.t_start && due < plan_.t_end) {
      stats_.lag_us.push_back(static_cast<double>(now - due) / 1e3);
    }
  }

  void consume(std::int64_t now) {
    std::size_t offset = 0;
    while (true) {
      const net::ExtractResult got =
          net::try_extract_frame(std::string_view(conn_.in).substr(offset));
      if (got.status == net::ExtractResult::Status::kNeedMore) break;
      ROPUF_REQUIRE(got.status == net::ExtractResult::Status::kFrame,
                    std::string("defective frame from server: ") +
                        net::frame_defect_name(got.defect));
      handle(got.frame, now);
      offset += got.frame.frame_bytes;
    }
    conn_.in.erase(0, offset);
    if (!plan_.open_loop && served_ != stats_.served_curve.back().second) {
      stats_.served_curve.emplace_back(now, served_);
    }
  }

  void handle(const net::FrameView& frame, std::int64_t now) {
    if (pool_.protocol == 1) {
      ROPUF_REQUIRE(frame.type == net::FrameType::kAuthResponse,
                    "unexpected frame type on a v1 connection");
      ROPUF_REQUIRE(in_flight_ > 0, "answer without a request");
      Slot& slot = slots_[done_seq_++ % kRing];  // v1 answers in order
      complete(slot, net::decode_response_payload(frame.payload), now);
      return;
    }
    if (frame.type == net::FrameType::kAuthChallenge) {
      const net::ChallengePayload challenge = net::decode_challenge_payload(frame.payload);
      Slot& slot = slot_for(challenge.request_id);
      const service::ProofIntent& intent = pool_.intents[slot.pool_index];
      slot.nonce = challenge.nonce;
      conn_.out += net::encode_proof_frame(
          challenge.request_id, proof_tag(intent, challenge.nonce, challenge.request_id));
      return;
    }
    ROPUF_REQUIRE(frame.type == net::FrameType::kAuthResponse,
                  "unexpected frame type on a v2 connection");
    const net::V2Response response = net::decode_response_payload_v2(frame.payload);
    Slot& slot = slot_for(response.request_id);
    if (!is_failure(response.response.status)) {
      ProofRecord record;
      record.request_id = response.request_id;
      record.nonce = slot.nonce;
      record.pool_index = static_cast<std::uint32_t>(slot.pool_index);
      record.response_bits = response.response.response_bits;
      record.distance = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(response.response.distance, UINT32_MAX));
      record.status = response.response.status;
      stats_.proofs.push_back(record);
    }
    complete(slot, response.response, now);
  }

  Slot& slot_for(std::uint64_t request_id) {
    ROPUF_REQUIRE(request_id >= 1, "answer without a request id");
    Slot& slot = slots_[(request_id - 1) % kRing];
    ROPUF_REQUIRE(slot.busy && slot.seq == request_id - 1,
                  "answer for an unknown request id");
    return slot;
  }

  void complete(Slot& slot, const net::WireResponse& got, std::int64_t now) {
    slot.busy = false;
    --in_flight_;
    const bool failed = is_failure(got.status);
    if (failed) {
      ++stats_.failed;
      if (got.status == net::WireStatus::kRateLimited ||
          got.status == net::WireStatus::kBudgetExhausted) {
        ++stats_.denied;
      }
    } else if (pool_.protocol == 1 &&
               !same_response(got, pool_.expected[slot.pool_index])) {
      note_mismatch(slot.pool_index, got);
    }
    const auto window_of = [&](std::int64_t t) {
      return static_cast<std::size_t>(
          static_cast<double>(t - plan_.t_start) * static_cast<double>(plan_.windows) /
          static_cast<double>(plan_.t_end - plan_.t_start));
    };
    if (plan_.open_loop) {
      if (slot.due >= plan_.t_start && slot.due < plan_.t_end) {
        // A failed request misses every latency limit.
        const double latency_us =
            failed ? INFINITY : static_cast<double>(now - slot.due) / 1e3;
        stats_.window_latency_us[window_of(slot.due)].push_back(latency_us);
      }
    } else if (!failed) {
      // Throughput and server CPU per request count served answers only: a
      // server that sheds or denies more must not read as faster.
      ++served_;
    }
  }

  void note_mismatch(std::size_t pool_index, const net::WireResponse& got) {
    if (stats_.mismatches++ > 0) return;
    const net::WireResponse& want = pool_.expected[pool_index];
    std::ostringstream note;
    note << "pool request " << pool_index << ": got " << net::wire_status_name(got.status)
         << " d=" << got.distance << " bits=" << got.response_bits << ", expected "
         << net::wire_status_name(want.status) << " d=" << want.distance
         << " bits=" << want.response_bits;
    stats_.first_mismatch = note.str();
  }

  Connection& conn_;
  const Pool& pool_;
  const PhasePlan& plan_;
  std::size_t slice_begin_;
  std::size_t slice_end_;
  std::size_t cursor_;
  Rng gaps_;
  PhaseStats& stats_;
  std::vector<Slot> slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t done_seq_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t served_ = 0;
  std::int64_t next_due_;
  bool done_ = false;
};

/// The closed loop: one thread per connection, sleeping on its socket
/// while the window is full.
void drive_closed(ConnectionRunner& runner) {
  while (!runner.done()) {
    if (!runner.step() && !runner.done()) runner.connection().wait(50);
  }
}

/// The open loop: one thread spins over every connection so requests leave
/// on time (loadgen.lag_p99_us reports how late) while only one core of
/// the generator stays busy.
void drive_open(std::vector<std::unique_ptr<ConnectionRunner>>& runners) {
  bool running = true;
  while (running) {
    running = false;
    for (auto& runner : runners) {
      if (runner->done()) continue;
      runner->step();
      running = true;
    }
  }
}

// ------------------------------------------------------- CPU accounting

/// utime + stime of a process in microseconds, from /proc/<pid>/stat;
/// NaN when the process is gone (the caller checks once its threads are
/// joined).
double process_cpu_us(long pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return NAN;
  std::istringstream fields(stat.substr(paren + 2));
  std::string token;
  double ticks = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int field = 3; field <= 15 && (fields >> token); ++field) {
    if (field >= 14) ticks += std::stod(token);
  }
  return ticks * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_cpu_us() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

/// Served answers on one connection by time t, interpolated linearly
/// between the bursts of its served-answer curve.
double served_by(const std::vector<std::pair<std::int64_t, std::uint64_t>>& curve,
                 std::int64_t t) {
  const auto after = std::upper_bound(
      curve.begin(), curve.end(), t,
      [](std::int64_t value, const auto& point) { return value < point.first; });
  if (after == curve.begin()) return 0.0;
  const auto& [t0, n0] = *std::prev(after);
  if (after == curve.end()) return static_cast<double>(n0);
  const auto& [t1, n1] = *after;
  return static_cast<double>(n0) + static_cast<double>(n1 - n0) *
                                       static_cast<double>(t - t0) /
                                       static_cast<double>(t1 - t0);
}

struct PhaseResult {
  PhaseStats total;
  double answered = 0.0;               ///< closed loop: served in the timed span
  std::vector<double> window_rates;    ///< closed loop: served per second
  double server_cpu_us = 0.0;
  double loadgen_cpu_us = 0.0;
  std::vector<std::deque<ProofRecord>> proofs;  ///< per connection (v2)
};

/// Runs one phase over fresh connections, one thread each.
PhaseResult run_phase(const Pool& pool, PhasePlan plan, std::uint16_t port, long server_pid,
                      double measure_s, std::uint64_t seed) {
  constexpr std::size_t connections = kConnections;
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Connection>(port));
    if (pool.protocol == 2) conns.back()->negotiate_v2();
    conns.back()->set_nonblocking();
  }
  plan.t_begin = now_ns() + 20'000'000;
  plan.t_start = plan.t_begin + static_cast<std::int64_t>(kWarmupS * 1e9);
  plan.t_end = plan.t_start + static_cast<std::int64_t>(measure_s * 1e9);
  // 50 ms sub-windows: rates and percentiles are taken per window, and
  // run.py summarizes the windows of every server it starts, so a stall of
  // the host that hits some windows does not decide the run's figure.
  plan.windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(measure_s / 0.05)));

  std::vector<PhaseStats> stats(connections);
  std::vector<std::unique_ptr<ConnectionRunner>> runners;
  for (std::size_t c = 0; c < connections; ++c) {
    runners.push_back(std::make_unique<ConnectionRunner>(
        *conns[c], pool, plan, c * pool.size() / connections,
        (c + 1) * pool.size() / connections,
        seed * 0x9e37'79b9'7f4a'7c15ull + c + 1, stats[c]));
  }
  // Closed loop: a thread per connection. Open loop: one thread for all.
  const std::size_t thread_count = plan.open_loop ? 1 : connections;
  std::vector<std::string> errors(thread_count);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < thread_count; ++t) {
    threads.emplace_back([&, t]() {
      try {
        if (plan.open_loop) {
          drive_open(runners);
        } else {
          drive_closed(*runners[t]);
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  PhaseResult result;
  const auto sleep_to = [](std::int64_t t) {
    const std::int64_t wait = t - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  };
  sleep_to(plan.t_start);
  const double server0 = process_cpu_us(server_pid);
  const double self0 = self_cpu_us();
  sleep_to(plan.t_end);
  result.server_cpu_us = process_cpu_us(server_pid) - server0;
  result.loadgen_cpu_us = self_cpu_us() - self0;
  for (std::thread& t : threads) t.join();
  for (const std::string& error : errors) ROPUF_REQUIRE(error.empty(), error);
  ROPUF_REQUIRE(!std::isnan(result.server_cpu_us),
                "cannot read /proc/" + std::to_string(server_pid) + "/stat");

  PhaseStats& total = result.total;
  total.window_latency_us.assign(plan.windows, {});
  result.window_rates.assign(plan.windows, 0.0);
  const double window_ns =
      static_cast<double>(plan.t_end - plan.t_start) / static_cast<double>(plan.windows);
  const auto window_edge = [&](std::size_t w) {
    return plan.t_start + std::llround(static_cast<double>(w) * window_ns);
  };
  for (PhaseStats& s : stats) {
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.denied += s.denied;
    if (total.mismatches == 0 && s.mismatches > 0) total.first_mismatch = s.first_mismatch;
    total.mismatches += s.mismatches;
    for (std::size_t w = 0; w < plan.windows; ++w) {
      if (!plan.open_loop) {
        result.window_rates[w] +=
            (served_by(s.served_curve, window_edge(w + 1)) -
             served_by(s.served_curve, window_edge(w))) * 1e9 / window_ns;
      }
      auto& into = total.window_latency_us[w];
      into.insert(into.end(), s.window_latency_us[w].begin(), s.window_latency_us[w].end());
    }
    total.lag_us.insert(total.lag_us.end(), s.lag_us.begin(), s.lag_us.end());
    result.answered += served_by(s.served_curve, plan.t_end) -
                       served_by(s.served_curve, plan.t_start);
    result.proofs.push_back(std::move(s.proofs));
  }
  return result;
}

/// Checks every answered v2 proof against verify_proof on the nonce the
/// server sent and the tag the prover returned; `corrupt_first` flips the
/// first expectation (the gate's self-test). Returns the mismatch count.
std::uint64_t check_proofs(const service::AuthService& reference, const Pool& pool,
                           const std::deque<ProofRecord>& records, bool corrupt_first,
                           std::string& first_mismatch) {
  std::uint64_t mismatches = 0;
  constexpr std::size_t kChunk = 1u << 16;
  for (std::size_t begin = 0; begin < records.size(); begin += kChunk) {
    const std::size_t count = std::min(records.size() - begin, kChunk);
    const std::vector<service::ProofRequest> batch =
        parallel_transform<service::ProofRequest>(count, reference.options().threads,
                                                  [&](std::size_t k) {
          const ProofRecord& r = records[begin + k];
          const service::ProofIntent& intent = pool.intents[r.pool_index];
          service::ProofRequest request;
          request.request_id = r.request_id;
          request.device_id = intent.device_id;
          request.nonce = r.nonce;
          request.tag = proof_tag(intent, r.nonce, r.request_id);
          return request;
        });
    const std::vector<service::AuthVerdict> verdicts = reference.verify_proof_batch(batch);
    for (std::size_t k = 0; k < count; ++k) {
      const ProofRecord& r = records[begin + k];
      net::WireResponse want = net::wire_response(verdicts[k]);
      if (corrupt_first && begin + k == 0) {
        want.status = want.accepted() ? net::WireStatus::kReject : net::WireStatus::kAccept;
      }
      const net::WireResponse got{r.status, r.distance, r.response_bits};
      if (same_response(got, want)) continue;
      if (mismatches++ == 0) {
        std::ostringstream note;
        note << "proof rid " << r.request_id << " device " << batch[k].device_id
             << ": got " << net::wire_status_name(got.status) << ", expected "
             << net::wire_status_name(want.status);
        first_mismatch = note.str();
      }
    }
  }
  return mismatches;
}

// ------------------------------------------------------------ commands

int run_drive(const cli::Args& args) {
  const std::string path = args.get("registry", "");
  const int protocol = static_cast<int>(cli::count_arg(args, "protocol", 1));
  ROPUF_REQUIRE(protocol == 1 || protocol == 2, "--protocol must be 1 or 2");
  const std::uint64_t seed = cli::count_arg(args, "seed", 1);
  const auto port = static_cast<std::uint16_t>(cli::count_arg(args, "port", 0));
  const long server_pid = static_cast<long>(cli::count_arg(args, "server-pid", 0));
  const double closed_s = args.number("closed-s", 1.0);
  const double open_s = args.number("open-s", 1.0);
  const double rate = args.number("rate", 1000.0);
  const bool corrupt = cli::count_arg(args, "corrupt-expected", 0) != 0;
  ROPUF_REQUIRE(port > 0 && server_pid > 0, "drive needs --port and --server-pid");
  ROPUF_REQUIRE(kConnections <= std::thread::hardware_concurrency(),
                "more connection threads than CPUs");

  const registry::EpochFileSet files = registry::load_epoch_files(path);
  const registry::EpochRegistry epochs(files.base, files.deltas);
  const service::AuthService reference(&epochs, reference_options(args));
  Pool pool = make_pool(files.base, reference, protocol, seed);
  // The v2 check runs between phases on every CPU.
  service::AuthServiceOptions checker_options = reference_options(args);
  checker_options.threads = ThreadBudget(std::thread::hardware_concurrency());
  const service::AuthService checker(&epochs, checker_options);
  if (corrupt && protocol == 1) {
    // One deliberately wrong expectation: the correctness gate must trip.
    net::WireResponse& want = pool.expected[0];
    want.status = want.accepted() ? net::WireStatus::kReject : net::WireStatus::kAccept;
  }

  // v2 answers are checked after each phase, outside its timing, and
  // dropped before the next phase starts.
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  std::uint64_t checked_proofs = 0;
  const auto check_phase = [&](PhaseResult& phase) {
    mismatches += phase.total.mismatches;
    if (first_mismatch.empty()) first_mismatch = phase.total.first_mismatch;
    for (std::deque<ProofRecord>& records : phase.proofs) {
      std::string note;
      mismatches += check_proofs(checker, pool, records, corrupt && checked_proofs == 0, note);
      checked_proofs += records.size();
      if (first_mismatch.empty()) first_mismatch = note;
      std::deque<ProofRecord>().swap(records);
    }
  };

  const PhasePlan closed_plan;
  PhasePlan open_plan;
  open_plan.open_loop = true;
  open_plan.rate_per_connection = rate / static_cast<double>(kConnections);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t denied = 0;
  PhaseResult closed = run_phase(pool, closed_plan, port, server_pid, closed_s, seed);
  check_phase(closed);
  attempted += closed.total.attempted;
  failed += closed.total.failed;
  denied += closed.total.denied;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  std::vector<double> lag_us;
  std::uint64_t samples = 0;
  if (open_s > 0.0) {
    PhaseResult open = run_phase(pool, open_plan, port, server_pid, open_s, seed + 1);
    check_phase(open);
    attempted += open.total.attempted;
    failed += open.total.failed;
    denied += open.total.denied;
    for (std::vector<double>& window : open.total.window_latency_us) {
      samples += window.size();
      if (window.empty()) continue;
      p50s.push_back(percentile(window, 0.50));
      p90s.push_back(percentile(window, 0.90));
      p99s.push_back(percentile(window, 0.99));
    }
    lag_us = std::move(open.total.lag_us);
  }

  // Per-window figures go out raw: run.py pools the windows of every
  // server it starts before taking medians.
  JsonOut json;
  json.integer("connections", kConnections);
  json.integer("closed_threads", kConnections);
  json.integer("open_threads", 1);
  json.integer("window", kWindow);
  json.number("warmup_s", kWarmupS);
  json.integer("attempted", attempted);
  json.integer("failed", failed);
  json.integer("denied", denied);
  json.integer("mismatches", mismatches);
  json.text("first_mismatch", first_mismatch);
  json.integer("checked_proofs", checked_proofs);
  json.number("answered", closed.answered);
  json.number("server_cpu_us", closed.server_cpu_us);
  json.number("loadgen_cpu_us", closed.loadgen_cpu_us);
  json.numbers("window_rates", closed.window_rates);
  json.integer("latency_samples", samples);
  json.numbers("latency_p50s_us", p50s);
  json.numbers("latency_p90s_us", p90s);
  json.numbers("latency_p99s_us", p99s);
  json.number("lag_p99_us", percentile(lag_us, 0.99));
  std::printf("%s\n", json.str().c_str());
  return mismatches == 0 ? 0 : 3;
}

int usage() {
  std::fprintf(stderr,
               "usage: servebench_loadgen drive|layers --key value ...\n"
               "(see the header of servebench/loadgen.cpp)\n");
  return 64;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "servebench_loadgen: refusing to run an assert-enabled build; "
                       "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  if (argc < 2) return servebench::usage();
  try {
    const std::string command = argv[1];
    const ropuf::cli::Args args(argc, argv, 2);
    if (command == "drive") return servebench::run_drive(args);
    if (command == "layers") return servebench::run_layers(args);
    return servebench::usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench_loadgen: %s\n", e.what());
    return 1;
  }
}
