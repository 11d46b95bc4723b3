// The `valuecheck serve` daemon core (DESIGN.md §19).
//
// AnalysisServer owns the listening socket (Unix-domain or TCP loopback), an
// accept thread, one thread per client connection, the AdmissionController
// that bounds concurrent work, and the per-project ProjectHost map that keeps
// IncrementalEngine state warm across requests. The robustness envelope:
//
//   * per-request deadlines — a request's deadline_ms becomes the analysis
//     unit budget (ResourceBudget::unit_deadline_seconds), so an over-budget
//     unit quarantines and the request degrades to partial results instead of
//     hanging; a request whose deadline already expired while queued is
//     answered "deadline" without running at all;
//   * bounded admission — over max_inflight requests queue, over max_queue
//     they shed with RETRY_AFTER (see admission.h);
//   * per-request quarantine — any exception a request provokes (malformed
//     config, unknown checker, analysis fault) is caught at the request
//     boundary and returned as an error frame; the process and the other
//     connections are untouched;
//   * slow-loris guard — a connection idling mid-frame past
//     idle_read_timeout_seconds is dropped with a protocol error;
//   * drain — RequestDrain() stops accepting, sheds queued work, lets
//     in-flight requests finish and respond, then Wait() returns so the
//     caller can flush ledger/metrics artifacts. SIGTERM in the CLI maps
//     straight onto this pair.
//
// The server counts every request outcome once, in its exact ServeTotals
// (including a latency histogram) for the drain-time ledger record. It
// publishes the vc_serve_* family through the global MetricsRegistry: the
// latency histograms and high-water gauges as requests run, the serve.*
// counters from totals() once, when Wait() finishes the drain.

#ifndef VALUECHECK_SRC_SERVER_SERVER_H_
#define VALUECHECK_SRC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/analysis.h"
#include "src/server/admission.h"
#include "src/server/project_host.h"
#include "src/server/request.h"
#include "src/support/metrics.h"

namespace vc {

struct ServerOptions {
  // Unix-domain socket path; empty selects TCP on the loopback interface.
  std::string socket_path;
  // TCP port (0 = kernel-assigned ephemeral; read it back via port()).
  int tcp_port = 0;
  // Admission envelope.
  int max_inflight = 2;
  int max_queue = 8;
  // Drop a connection idling mid-frame longer than this (slow-loris guard).
  double idle_read_timeout_seconds = 30.0;
  // Deadline applied when a request carries none (0 = unlimited).
  double default_deadline_ms = 0.0;
  // Per-project summary ring size (history/diff/report answers).
  size_t history_limit = 64;
  // Honor the request debug_sleep_ms field. Tests only: lets a request hold
  // an execution slot deterministically to provoke queueing and shedding.
  bool allow_debug_sleep = false;
  // Base analysis configuration (macros, traits, prune patterns). Per-request
  // checkers/jobs/fault/deadline are folded on top per request.
  AnalysisOptions analysis;
};

// Exact end-of-run accounting (the chaos-run invariant:
// requests == succeeded + degraded + shed + deadline + failed).
struct ServeTotals {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t succeeded = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t failed = 0;
  uint64_t protocol_errors = 0;
  uint64_t cached = 0;
  uint64_t engine_rebuilds = 0;
  uint64_t projects = 0;
  int inflight_high_water = 0;
  int queue_high_water = 0;
  double wall_seconds = 0.0;
  uint64_t latency_count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  uint64_t Accounted() const {
    return succeeded + degraded + shed + deadline + failed;
  }
};

class AnalysisServer {
 public:
  explicit AnalysisServer(ServerOptions options);
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  // Binds, listens, and starts the accept thread. False (with *error) on any
  // socket failure.
  bool Start(std::string* error);

  // Resolved TCP port (after Start, TCP mode only).
  int port() const { return port_; }
  // "unix:<path>" or "tcp:127.0.0.1:<port>" — for log lines and clients.
  std::string address() const;

  // Begins the drain: stop accepting, shed queued work, finish in-flight.
  // Idempotent; also triggered by a client "shutdown" request.
  void RequestDrain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  // Joins every thread. Returns once all connections are closed and all
  // admitted requests have responded.
  void Wait();

  ServeTotals totals() const;

 private:
  void AcceptLoop();
  void ConnectionLoop(int fd);
  // Handles one request payload end to end; returns the response payload.
  std::string HandleRequest(const std::string& payload);
  std::string HandleAnalyze(const ServeRequest& request,
                            std::chrono::steady_clock::time_point arrival);
  std::string HandleProjectQuery(const ServeRequest& request);
  ProjectHost& HostFor(const std::string& project);
  // Folds one request's overrides into the base AnalysisOptions. Throws
  // std::invalid_argument on a bad fault spec.
  AnalysisOptions OptionsFor(const ServeRequest& request) const;

  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::thread accept_thread_;
  std::mutex threads_mutex_;
  std::vector<std::thread> connection_threads_;

  AdmissionController admission_;
  mutable std::mutex hosts_mutex_;
  std::map<std::string, std::unique_ptr<ProjectHost>> hosts_;

  // Exact totals (relaxed atomics; read coherently after Wait()).
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> succeeded_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> cached_{0};
  Histogram request_latency_;  // exact percentiles for the ledger record
  std::chrono::steady_clock::time_point start_time_;
  std::chrono::steady_clock::time_point end_time_;
  std::atomic<bool> ended_{false};

  // vc_serve_* registry family (Prometheus export / vc_obs_lint); Wait()
  // publishes the serve.* counters from totals().
  Histogram& m_request_seconds_;
  Histogram& m_queue_wait_seconds_;
  Gauge& m_inflight_hwm_;
  Gauge& m_queue_depth_hwm_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SERVER_SERVER_H_
