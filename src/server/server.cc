#include "src/server/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "src/core/report_formats.h"
#include "src/server/protocol.h"
#include "src/support/events.h"
#include "src/support/json_writer.h"

namespace vc {

namespace {

// Sends the whole buffer; MSG_NOSIGNAL turns a dead peer into EPIPE instead
// of a process-wide SIGPIPE (the daemon must survive any client behavior).
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

double ElapsedSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

}  // namespace

AnalysisServer::AnalysisServer(ServerOptions options)
    : options_(std::move(options)),
      admission_({options_.max_inflight, options_.max_queue}),
      m_request_seconds_(MetricsRegistry::Global().GetHistogram("serve.request_seconds")),
      m_queue_wait_seconds_(
          MetricsRegistry::Global().GetHistogram("serve.queue_wait_seconds")),
      m_inflight_hwm_(MetricsRegistry::Global().GetGauge("serve.inflight_hwm")),
      m_queue_depth_hwm_(MetricsRegistry::Global().GetGauge("serve.queue_depth_hwm")) {}

AnalysisServer::~AnalysisServer() {
  if (started_.load(std::memory_order_relaxed)) {
    RequestDrain();
    Wait();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
}

bool AnalysisServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (!options_.socket_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return fail("socket(AF_UNIX)");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) {
        *error = "socket path too long: " + options_.socket_path;
      }
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(options_.socket_path.c_str());  // stale socket from a dead daemon
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return fail("bind(" + options_.socket_path + ")");
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return fail("socket(AF_INET)");
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return fail("bind(127.0.0.1:" + std::to_string(options_.tcp_port) + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      return fail("getsockname");
    }
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) < 0) {
    return fail("listen");
  }
  start_time_ = std::chrono::steady_clock::now();
  started_.store(true, std::memory_order_relaxed);
  RunEvent("serve_start")
      .Str("address", address())
      .Num("max_inflight", static_cast<int64_t>(options_.max_inflight))
      .Num("max_queue", static_cast<int64_t>(options_.max_queue));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

std::string AnalysisServer::address() const {
  if (!options_.socket_path.empty()) {
    return "unix:" + options_.socket_path;
  }
  return "tcp:127.0.0.1:" + std::to_string(port_);
}

void AnalysisServer::RequestDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true, std::memory_order_relaxed)) {
    return;
  }
  RunEvent("serve_drain").Str("address", address());
  admission_.BeginDrain();
  // Breaks the accept loop's poll/accept immediately.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
}

void AnalysisServer::Wait() {
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Connection threads observe the drain flag within one poll slice and exit
  // once their buffered requests have been answered.
  for (;;) {
    std::vector<std::thread> batch;
    {
      std::lock_guard<std::mutex> lock(threads_mutex_);
      batch.swap(connection_threads_);
    }
    if (batch.empty()) {
      break;
    }
    for (std::thread& t : batch) {
      t.join();
    }
  }
  if (!ended_.exchange(true, std::memory_order_relaxed)) {
    end_time_ = std::chrono::steady_clock::now();
    // Every outcome is counted once, in totals(); the registry's serve.*
    // counters are published from it here, after the last request answered.
    const ServeTotals t = totals();
    const std::pair<const char*, uint64_t> counters[] = {
        {"serve.requests", t.requests},
        {"serve.ok", t.succeeded},
        {"serve.degraded", t.degraded},
        {"serve.shed", t.shed},
        {"serve.deadline", t.deadline},
        {"serve.failed", t.failed},
        {"serve.protocol_errors", t.protocol_errors},
        {"serve.connections", t.connections},
        {"serve.cached_responses", t.cached},
        {"serve.engine_rebuilds", t.engine_rebuilds},
    };
    for (const auto& [name, value] : counters) {
      MetricsRegistry::Global().GetCounter(name).Add(value);
    }
    RunEvent("serve_end")
        .Num("requests", t.requests)
        .Num("shed", t.shed)
        .Num("failed", t.failed);
  }
}

ServeTotals AnalysisServer::totals() const {
  ServeTotals t;
  t.connections = connections_.load(std::memory_order_relaxed);
  t.requests = requests_.load(std::memory_order_relaxed);
  t.succeeded = succeeded_.load(std::memory_order_relaxed);
  t.degraded = degraded_.load(std::memory_order_relaxed);
  t.shed = shed_.load(std::memory_order_relaxed);
  t.deadline = deadline_.load(std::memory_order_relaxed);
  t.failed = failed_.load(std::memory_order_relaxed);
  t.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  t.cached = cached_.load(std::memory_order_relaxed);
  t.inflight_high_water = admission_.inflight_high_water();
  t.queue_high_water = admission_.queued_high_water();
  {
    std::lock_guard<std::mutex> lock(hosts_mutex_);
    t.projects = hosts_.size();
    for (const auto& [name, host] : hosts_) {
      t.engine_rebuilds += static_cast<uint64_t>(host->engine_rebuilds());
    }
  }
  t.wall_seconds = ended_.load(std::memory_order_relaxed)
                       ? std::chrono::duration<double>(end_time_ - start_time_).count()
                       : ElapsedSeconds(start_time_);
  t.latency_count = request_latency_.count();
  t.p50_ms = request_latency_.ValueAtQuantile(0.50) * 1e3;
  t.p95_ms = request_latency_.ValueAtQuantile(0.95) * 1e3;
  t.p99_ms = request_latency_.ValueAtQuantile(0.99) * 1e3;
  return t;
}

void AnalysisServer::AcceptLoop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;  // signal; re-check the drain flag
      }
      break;
    }
    if (ready == 0) {
      continue;
    }
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      break;  // listen socket shut down (drain) or fatal
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connection_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
  }
}

void AnalysisServer::ConnectionLoop(int fd) {
  FrameDecoder decoder;
  auto last_byte = std::chrono::steady_clock::now();
  bool alive = true;
  while (alive) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready > 0) {
      char buf[64 * 1024];
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        // Peer closed (or reset). Mid-frame close = truncated frame.
        if (decoder.mid_frame()) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      last_byte = std::chrono::steady_clock::now();
      decoder.Feed(buf, static_cast<size_t>(n));
      if (decoder.error()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendAll(fd, EncodeFrame(MakeErrorResponse("", "protocol",
                                                  decoder.error_message())));
        break;
      }
      std::string payload;
      while (decoder.Pop(&payload)) {
        std::string response = HandleRequest(payload);
        if (!SendAll(fd, EncodeFrame(response))) {
          alive = false;  // peer vanished mid-response; nothing to salvage
          break;
        }
      }
    } else if (decoder.mid_frame() &&
               ElapsedSeconds(last_byte) > options_.idle_read_timeout_seconds) {
      // Slow-loris: a frame started but its bytes stopped coming. Answer with
      // a protocol error and drop the connection rather than hold the fd (and
      // Wait()) hostage forever.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendAll(fd, EncodeFrame(MakeErrorResponse(
                      "", "timeout", "frame read timed out (slow client)")));
      break;
    }
    if (draining_.load(std::memory_order_relaxed) && !decoder.mid_frame()) {
      // Drain: everything buffered has been answered; close instead of
      // reading further requests.
      break;
    }
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

std::string AnalysisServer::HandleRequest(const std::string& payload) {
  const auto arrival = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);

  ServeRequest request;
  std::string parse_error;
  if (!ParseServeRequest(payload, &request, &parse_error)) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return MakeErrorResponse(request.id, "bad_request", parse_error);
  }

  // Ping and shutdown skip admission: health checks must answer under full
  // load, and the drain trigger must never be shed by the very overload it
  // is meant to relieve.
  if (request.method == ServeMethod::kPing) {
    succeeded_.fetch_add(1, std::memory_order_relaxed);
    request_latency_.Record(ElapsedSeconds(arrival));
    m_request_seconds_.Record(ElapsedSeconds(arrival));
    return MakePongResponse(request.id);
  }
  if (request.method == ServeMethod::kShutdown) {
    RequestDrain();
    succeeded_.fetch_add(1, std::memory_order_relaxed);
    JsonWriter json;
    json.BeginObject();
    json.String("id", request.id);
    json.String("status", "ok");
    json.String("method", "shutdown");
    json.Bool("draining", true);
    json.EndObject();
    return json.str();
  }

  AdmissionController::Outcome admitted = admission_.Enter();
  m_queue_depth_hwm_.UpdateMax(admission_.queued_high_water());
  m_inflight_hwm_.UpdateMax(admission_.inflight_high_water());
  if (admitted != AdmissionController::Outcome::kAdmitted) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    const char* reason = admitted == AdmissionController::Outcome::kShedDraining
                             ? "draining"
                             : "queue_full";
    return MakeShedResponse(request.id, admission_.RetryAfterMs(), reason);
  }

  // Admitted. Everything from here on must Leave() exactly once.
  std::string response;
  const double waited_ms = ElapsedSeconds(arrival) * 1e3;
  m_queue_wait_seconds_.Record(waited_ms / 1e3);
  double deadline_ms = request.deadline_ms > 0.0 ? request.deadline_ms
                                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0 && waited_ms >= deadline_ms) {
    // The deadline burned away in queue; running now would only return an
    // answer the client has already given up on.
    deadline_.fetch_add(1, std::memory_order_relaxed);
    response = MakeDeadlineResponse(request.id, waited_ms);
  } else {
    try {
      if (options_.allow_debug_sleep && request.debug_sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(request.debug_sleep_ms));
      }
      if (request.method == ServeMethod::kAnalyze) {
        response = HandleAnalyze(request, arrival);
      } else {
        response = HandleProjectQuery(request);
        succeeded_.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      // Per-request quarantine: a poisoned input fails ITS request, not the
      // daemon. The connection stays usable for the next frame.
      failed_.fetch_add(1, std::memory_order_relaxed);
      response = MakeErrorResponse(request.id, "internal", e.what());
    } catch (...) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      response = MakeErrorResponse(request.id, "internal", "unknown error");
    }
  }
  const double total_seconds = ElapsedSeconds(arrival);
  admission_.RecordServiceSeconds(total_seconds - waited_ms / 1e3);
  admission_.Leave();
  request_latency_.Record(total_seconds);
  m_request_seconds_.Record(total_seconds);
  return response;
}

AnalysisOptions AnalysisServer::OptionsFor(const ServeRequest& request) const {
  AnalysisOptions options = options_.analysis;
  // Batch sources-mode shape: pasted snapshots carry no real authorship, so
  // the cross-scope filter and ranking are off — exactly what
  // `valuecheck analyze DIR` does, which is what the equivalence test pins.
  options.cross_scope_only = false;
  options.ranking.enabled = false;
  // The synthetic per-request commit log exists for incrementality, not
  // provenance; classifying against it would diverge from the repo-less batch
  // run (single-author blame downgrades candidate kinds).
  options.authorship = false;
  options.checkers = request.checkers;
  options.jobs = request.jobs;
  double deadline_ms = request.deadline_ms > 0.0 ? request.deadline_ms
                                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    // The full deadline as the per-unit budget (not the remaining slice):
    // keeps the engine config key stable across requests so warm state
    // survives, while still bounding every unit's wall clock.
    options.budget.unit_deadline_seconds = deadline_ms / 1e3;
  }
  if (!request.fault_spec.empty()) {
    std::string fault_error;
    std::optional<FaultInjector> fault = FaultInjector::Parse(request.fault_spec,
                                                             &fault_error);
    if (!fault.has_value()) {
      throw std::invalid_argument("bad fault_inject spec: " + fault_error);
    }
    options.fault = *fault;
  }
  return options;
}

ProjectHost& AnalysisServer::HostFor(const std::string& project) {
  std::lock_guard<std::mutex> lock(hosts_mutex_);
  std::unique_ptr<ProjectHost>& slot = hosts_[project];
  if (slot == nullptr) {
    slot = std::make_unique<ProjectHost>(project, options_.analysis,
                                         options_.history_limit);
  }
  return *slot;
}

std::string AnalysisServer::HandleAnalyze(
    const ServeRequest& request, std::chrono::steady_clock::time_point arrival) {
  AnalysisOptions options = OptionsFor(request);
  ProjectHost& host = HostFor(request.project);
  ProjectAnalyzeOutcome outcome = host.Analyze(request.sources, options);
  if (outcome.cached) {
    cached_.fetch_add(1, std::memory_order_relaxed);
  }
  const AnalysisReport& report = outcome.report;
  if (report.degraded) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
  } else {
    succeeded_.fetch_add(1, std::memory_order_relaxed);
  }

  JsonWriter json;
  json.BeginObject();
  json.String("id", request.id);
  json.String("status", report.degraded ? "degraded" : "ok");
  json.String("method", "analyze");
  json.String("project", request.project);
  json.Int("commit", outcome.commit);
  json.Bool("cached", outcome.cached);
  json.Int("findings", static_cast<int64_t>(report.findings.size()));
  json.Int("quarantined", static_cast<int64_t>(report.quarantined.size()));
  json.Int("files_changed", outcome.files_changed);
  json.Int("functions_dirty", outcome.functions_dirty);
  json.Int("findings_new", outcome.findings_new);
  json.Int("findings_fixed", outcome.findings_fixed);
  json.Double("elapsed_ms", ElapsedSeconds(arrival) * 1e3);
  if (request.render == "json") {
    json.Raw("report", ReportToJson(report));
  } else {
    json.String("csv", report.ToCsv());
  }
  json.EndObject();
  return json.str();
}

std::string AnalysisServer::HandleProjectQuery(const ServeRequest& request) {
  ProjectHost& host = HostFor(request.project);
  JsonWriter json;
  json.BeginObject();
  json.String("id", request.id);
  json.String("status", "ok");
  json.String("method", ServeMethodName(request.method));
  json.String("project", request.project);
  if (request.method == ServeMethod::kDiff) {
    std::vector<std::string> added;
    std::vector<std::string> removed;
    const bool available = host.Diff(&added, &removed);
    json.Bool("available", available);
    json.Key("new").BeginArray();
    for (const std::string& fp : added) {
      json.StringValue(fp);
    }
    json.EndArray();
    json.Key("fixed").BeginArray();
    for (const std::string& fp : removed) {
      json.StringValue(fp);
    }
    json.EndArray();
  } else if (request.method == ServeMethod::kHistory) {
    json.Key("runs").BeginArray();
    for (const ProjectRunSummary& run : host.History(16)) {
      json.BeginObject();
      json.Int("commit", run.commit);
      json.Int("findings", run.findings);
      json.Bool("degraded", run.degraded);
      json.Int("quarantined", run.quarantined);
      json.Int("files_changed", run.files_changed);
      json.Int("functions_dirty", run.functions_dirty);
      json.Double("seconds", run.seconds);
      json.EndObject();
    }
    json.EndArray();
  } else {  // report
    ProjectRunSummary latest;
    const bool available = host.Latest(&latest);
    json.Bool("available", available);
    if (available) {
      json.Key("latest").BeginObject();
      json.Int("commit", latest.commit);
      json.Int("findings", latest.findings);
      json.Bool("degraded", latest.degraded);
      json.Int("quarantined", latest.quarantined);
      json.Int("findings_new", latest.findings_new);
      json.Int("findings_fixed", latest.findings_fixed);
      json.Key("checkers").BeginArray();
      for (const AnalysisReport::CheckerStat& stat : latest.checker_stats) {
        json.BeginObject();
        json.String("checker", stat.name);
        json.Int("candidates", static_cast<int64_t>(stat.candidates));
        json.Int("findings", static_cast<int64_t>(stat.findings));
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
  }
  json.EndObject();
  return json.str();
}

}  // namespace vc
