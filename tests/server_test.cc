// In-process integration tests for the `valuecheck serve` daemon: batch/daemon
// finding equivalence (the acceptance invariant, at jobs 1/2/8, cold and warm),
// admission shedding and deadlines, per-request quarantine, slow-loris and
// mid-stream-disconnect robustness, drain accounting (including the serve.*
// counters published at drain), and the client-initiated shutdown handshake.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/server/client.h"
#include "src/support/json_reader.h"
#include "src/support/json_writer.h"
#include "src/support/metrics.h"
#include "src/testing/testgen.h"

namespace vc {
namespace {

using Sources = std::vector<std::pair<std::string, std::string>>;

std::string AnalyzeRequest(const std::string& id, const std::string& project,
                           const Sources& sources, int jobs,
                           const std::string& fault_spec = "",
                           double deadline_ms = 0.0, int64_t debug_sleep_ms = 0) {
  JsonWriter json;
  json.BeginObject();
  json.String("id", id);
  json.String("method", "analyze");
  json.String("project", project);
  json.Key("sources").BeginArray();
  for (const auto& [path, content] : sources) {
    json.BeginObject();
    json.String("path", path);
    json.String("content", content);
    json.EndObject();
  }
  json.EndArray();
  json.Int("jobs", jobs);
  if (!fault_spec.empty()) {
    json.String("fault_inject", fault_spec);
  }
  if (deadline_ms > 0.0) {
    json.Double("deadline_ms", deadline_ms);
  }
  if (debug_sleep_ms > 0) {
    json.Int("debug_sleep_ms", debug_sleep_ms);
  }
  json.EndObject();
  return json.str();
}

std::string SimpleRequest(const std::string& id, const std::string& method,
                          const std::string& project = "",
                          double deadline_ms = 0.0, int64_t debug_sleep_ms = 0) {
  JsonWriter json;
  json.BeginObject();
  json.String("id", id);
  json.String("method", method);
  if (!project.empty()) {
    json.String("project", project);
  }
  if (deadline_ms > 0.0) {
    json.Double("deadline_ms", deadline_ms);
  }
  if (debug_sleep_ms > 0) {
    json.Int("debug_sleep_ms", debug_sleep_ms);
  }
  json.EndObject();
  return json.str();
}

class ServerTest : public ::testing::Test {
 protected:
  // TCP on an ephemeral loopback port: no socket-path-length or stale-file
  // concerns in the test environment.
  void StartServer(ServerOptions options) {
    options.socket_path.clear();
    options.tcp_port = 0;
    server_ = std::make_unique<AnalysisServer>(std::move(options));
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  std::unique_ptr<ServeClient> Connect() {
    std::string error;
    std::unique_ptr<ServeClient> client = ServeClient::ConnectTcp(server_->port(), &error);
    EXPECT_NE(client, nullptr) << error;
    return client;
  }

  JsonValue Call(ServeClient& client, const std::string& request) {
    std::string response;
    std::string error;
    EXPECT_TRUE(client.Call(request, &response, &error, 60.0)) << error;
    std::optional<JsonValue> parsed = ParseJson(response);
    EXPECT_TRUE(parsed.has_value()) << response;
    return parsed.has_value() ? std::move(*parsed) : JsonValue();
  }

  void DrainAndWait() {
    server_->RequestDrain();
    server_->Wait();
  }

  std::unique_ptr<AnalysisServer> server_;
};

Sources GenerateSources(uint64_t seed, const std::string& prefix, int files) {
  testing::GenOptions gen;
  gen.min_files = files;
  gen.max_files = files;
  gen.ident_prefix = prefix + "_";
  gen.file_prefix = prefix + "/";
  return testing::GenerateProgram(seed, gen).ToSources();
}

// The batch reference: exactly what `valuecheck analyze <files>` computes
// (sources mode — no authorship, all scopes, unranked).
std::string BatchCsv(const Sources& sources, int jobs) {
  AnalysisOptions options;
  options.cross_scope_only = false;
  options.ranking.enabled = false;
  options.jobs = jobs;
  Analysis analysis(options);
  return analysis.RunOnSources(sources).ToCsv();
}

// ---------------------------------------------------------------------------
// Equivalence: daemon findings are byte-identical to batch analyze
// ---------------------------------------------------------------------------

TEST_F(ServerTest, AnalyzeMatchesBatchByteForByteAtEveryJobCount) {
  StartServer(ServerOptions{});
  Sources pristine = GenerateSources(7, "eq", 3);
  Sources edited = pristine;
  edited.back().second +=
      "\nint eq_added(int a) {\n  int x;\n  x = a + 1;\n  int y;\n  y = x * 2;\n"
      "  return x;\n}\n";
  const std::string pristine_csv = BatchCsv(pristine, 1);
  const std::string edited_csv = BatchCsv(edited, 1);
  ASSERT_NE(pristine_csv, edited_csv) << "the edit must be visible in findings";

  for (int jobs : {1, 2, 8}) {
    // A fresh project per job count so every analyze really executes (same
    // snapshot + same config on one project would serve the cached replay).
    const std::string project = "eq-j" + std::to_string(jobs);
    auto client = Connect();
    ASSERT_NE(client, nullptr);

    // Cold: first analysis of the project (full parse).
    JsonValue cold = Call(*client, AnalyzeRequest("cold", project, pristine, jobs));
    EXPECT_EQ(cold.GetString("status"), "ok") << cold.GetString("message");
    EXPECT_EQ(cold.GetString("csv"), pristine_csv) << "jobs=" << jobs;

    // Warm: single-file delta through the incremental engine.
    JsonValue warm = Call(*client, AnalyzeRequest("warm", project, edited, jobs));
    EXPECT_EQ(warm.GetString("status"), "ok");
    EXPECT_EQ(warm.GetString("csv"), edited_csv) << "jobs=" << jobs;
    EXPECT_EQ(warm.GetInt("files_changed"), 1) << "edit touches one file";

    // Revert: the delta now deletes the added function.
    JsonValue revert = Call(*client, AnalyzeRequest("revert", project, pristine, jobs));
    EXPECT_EQ(revert.GetString("csv"), pristine_csv) << "jobs=" << jobs;
  }
  DrainAndWait();
  ServeTotals totals = server_->totals();
  EXPECT_EQ(totals.requests, totals.Accounted());
}

TEST_F(ServerTest, UnchangedSnapshotIsServedFromCache) {
  StartServer(ServerOptions{});
  Sources sources = GenerateSources(11, "cache", 2);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  JsonValue first = Call(*client, AnalyzeRequest("a", "p", sources, 1));
  EXPECT_FALSE(first.GetBool("cached"));
  JsonValue second = Call(*client, AnalyzeRequest("b", "p", sources, 1));
  EXPECT_TRUE(second.GetBool("cached"));
  EXPECT_EQ(first.GetString("csv"), second.GetString("csv"));
  DrainAndWait();
}

// ---------------------------------------------------------------------------
// Project queries
// ---------------------------------------------------------------------------

TEST_F(ServerTest, DiffHistoryReportFollowTheProjectTimeline) {
  StartServer(ServerOptions{});
  Sources pristine = GenerateSources(13, "q", 2);
  Sources edited = pristine;
  edited.back().second += "\nint q_new(int a) {\n  int x;\n  x = a;\n  return 1;\n}\n";
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  // Before any analysis: queries answer "available": false, not an error.
  JsonValue empty_report = Call(*client, SimpleRequest("r0", "report", "q"));
  EXPECT_EQ(empty_report.GetString("status"), "ok");
  EXPECT_FALSE(empty_report.GetBool("available", true));

  Call(*client, AnalyzeRequest("a1", "q", pristine, 1));
  Call(*client, AnalyzeRequest("a2", "q", edited, 1));

  JsonValue diff = Call(*client, SimpleRequest("d1", "diff", "q"));
  EXPECT_EQ(diff.GetString("status"), "ok");
  EXPECT_TRUE(diff.GetBool("available"));
  // The edit introduces at least one finding (x is never used).
  EXPECT_GE(diff.Get("new").Items().size(), 1u);

  JsonValue history = Call(*client, SimpleRequest("h1", "history", "q"));
  EXPECT_EQ(history.Get("runs").Items().size(), 2u);

  JsonValue report = Call(*client, SimpleRequest("r1", "report", "q"));
  EXPECT_TRUE(report.GetBool("available"));
  EXPECT_GE(report.Get("latest").GetInt("findings"), 1);
  DrainAndWait();
}

// ---------------------------------------------------------------------------
// Robustness envelope
// ---------------------------------------------------------------------------

TEST_F(ServerTest, OverloadShedsWithRetryAfter) {
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 0;
  options.allow_debug_sleep = true;
  StartServer(std::move(options));

  // Occupy the single execution slot from connection A...
  auto holder = Connect();
  ASSERT_NE(holder, nullptr);
  ASSERT_TRUE(holder->SendFrame(SimpleRequest("hold", "report", "p", 0.0, 700)));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // ...so connection B's request finds the queue full and sheds.
  auto shed_client = Connect();
  ASSERT_NE(shed_client, nullptr);
  JsonValue shed = Call(*shed_client, SimpleRequest("shed-me", "report", "p"));
  EXPECT_EQ(shed.GetString("status"), "shed");
  EXPECT_EQ(shed.GetString("reason"), "queue_full");
  EXPECT_GE(shed.GetInt("retry_after_ms"), 10);
  EXPECT_EQ(shed.GetString("id"), "shed-me");

  // The holder's request still completes normally.
  std::string response;
  std::string error;
  ASSERT_TRUE(holder->ReceiveFrame(&response, &error, 60.0)) << error;
  std::optional<JsonValue> held = ParseJson(response);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->GetString("status"), "ok");

  DrainAndWait();
  ServeTotals totals = server_->totals();
  EXPECT_EQ(totals.shed, 1u);
  EXPECT_EQ(totals.requests, totals.Accounted());
}

TEST_F(ServerTest, QueuedRequestPastItsDeadlineIsNotExecuted) {
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 8;
  options.allow_debug_sleep = true;
  StartServer(std::move(options));

  auto holder = Connect();
  ASSERT_NE(holder, nullptr);
  ASSERT_TRUE(holder->SendFrame(SimpleRequest("hold", "report", "p", 0.0, 600)));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // This request queues behind the 600ms holder; its 100ms deadline expires
  // while waiting, so it must answer "deadline" without running.
  auto late = Connect();
  ASSERT_NE(late, nullptr);
  JsonValue response = Call(*late, SimpleRequest("late", "report", "p", 100.0));
  EXPECT_EQ(response.GetString("status"), "deadline");
  EXPECT_EQ(response.GetString("id"), "late");

  std::string held_response;
  std::string error;
  ASSERT_TRUE(holder->ReceiveFrame(&held_response, &error, 60.0)) << error;

  DrainAndWait();
  ServeTotals totals = server_->totals();
  EXPECT_EQ(totals.deadline, 1u);
  EXPECT_EQ(totals.requests, totals.Accounted());
}

TEST_F(ServerTest, PoisonedRequestQuarantinesNotTheProcess) {
  StartServer(ServerOptions{});
  Sources sources = GenerateSources(17, "poison", 2);
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  // A bad fault spec throws inside request handling: error frame, connection
  // stays usable.
  JsonValue poisoned =
      Call(*client, AnalyzeRequest("bad", "p", sources, 1, "not-a-spec"));
  EXPECT_EQ(poisoned.GetString("status"), "error");
  EXPECT_EQ(poisoned.GetString("id"), "bad");

  // Malformed JSON likewise answers an error frame (with code) in-band.
  std::string raw_response;
  std::string error;
  ASSERT_TRUE(client->SendFrame("{\"id\":\"trunc\","));
  ASSERT_TRUE(client->ReceiveFrame(&raw_response, &error, 30.0)) << error;
  std::optional<JsonValue> malformed = ParseJson(raw_response);
  ASSERT_TRUE(malformed.has_value());
  EXPECT_EQ(malformed->GetString("status"), "error");
  EXPECT_EQ(malformed->GetString("code"), "bad_request");

  // Same connection, next request: healthy.
  JsonValue pong = Call(*client, SimpleRequest("still-alive", "ping"));
  EXPECT_EQ(pong.GetString("status"), "ok");

  // Total fault injection degrades (partial results), never kills.
  JsonValue degraded = Call(*client, AnalyzeRequest("deg", "p", sources, 1, "42:1.0"));
  EXPECT_EQ(degraded.GetString("status"), "degraded");
  EXPECT_GE(degraded.GetInt("quarantined"), 1);

  DrainAndWait();
  ServeTotals totals = server_->totals();
  EXPECT_EQ(totals.failed, 2u);  // the poisoned spec + the malformed payload
  EXPECT_EQ(totals.requests, totals.Accounted());
}

TEST_F(ServerTest, SlowLorisConnectionIsTimedOutNotServed) {
  ServerOptions options;
  options.idle_read_timeout_seconds = 0.3;
  StartServer(std::move(options));

  auto client = Connect();
  ASSERT_NE(client, nullptr);
  // Two bytes of length prefix, then silence: the server must not hang on
  // this connection forever.
  const char partial[] = {0, 0};
  ASSERT_TRUE(client->SendBytes(partial, 2));
  std::string response;
  std::string error;
  bool got_frame = client->ReceiveFrame(&response, &error, 10.0);
  if (got_frame) {
    // The in-band protocol-error frame before the close.
    std::optional<JsonValue> parsed = ParseJson(response);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->GetString("status"), "error");
  } else {
    EXPECT_NE(error.find("closed"), std::string::npos) << error;
  }

  // The daemon is still healthy for well-behaved clients.
  auto healthy = Connect();
  ASSERT_NE(healthy, nullptr);
  JsonValue pong = Call(*healthy, SimpleRequest("ok", "ping"));
  EXPECT_EQ(pong.GetString("status"), "ok");

  DrainAndWait();
  EXPECT_GE(server_->totals().protocol_errors, 1u);
}

TEST_F(ServerTest, MidStreamDisconnectIsAbsorbed) {
  StartServer(ServerOptions{});
  {
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    // A frame claiming 1000 bytes with only 10 delivered, then a hard close.
    const unsigned char prefix[] = {0, 0, 0x03, 0xE8};
    ASSERT_TRUE(client->SendBytes(prefix, 4));
    ASSERT_TRUE(client->SendBytes("0123456789", 10));
    client->Close();
  }
  // Poll until the server has registered the truncation (connection teardown
  // is asynchronous).
  for (int i = 0; i < 100 && server_->totals().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->totals().protocol_errors, 1u);

  auto healthy = Connect();
  ASSERT_NE(healthy, nullptr);
  JsonValue pong = Call(*healthy, SimpleRequest("ok", "ping"));
  EXPECT_EQ(pong.GetString("status"), "ok");
  DrainAndWait();
}

// ---------------------------------------------------------------------------
// Drain / shutdown
// ---------------------------------------------------------------------------

TEST_F(ServerTest, DrainShedsQueuedWorkAndFinishesInFlight) {
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 8;
  options.allow_debug_sleep = true;
  StartServer(std::move(options));

  // Each connection has its own session thread, so the server may read the
  // two frames in either order: wait for the holder to be admitted before
  // sending the second request, and for that one to queue before draining.
  auto wait_for = [](const auto& done) {
    for (int i = 0; i < 500 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  auto holder = Connect();
  ASSERT_NE(holder, nullptr);
  ASSERT_TRUE(holder->SendFrame(SimpleRequest("hold", "report", "p", 0.0, 600)));
  wait_for([&] { return server_->totals().inflight_high_water >= 1; });
  ASSERT_EQ(server_->totals().inflight_high_water, 1);

  auto queued = Connect();
  ASSERT_NE(queued, nullptr);
  ASSERT_TRUE(queued->SendFrame(SimpleRequest("queued", "report", "p")));
  wait_for([&] { return server_->totals().queue_high_water >= 1; });
  ASSERT_EQ(server_->totals().queue_high_water, 1);

  // Drain now: the queued waiter sheds with reason "draining"; the in-flight
  // holder finishes and responds.
  server_->RequestDrain();

  std::string response;
  std::string error;
  ASSERT_TRUE(queued->ReceiveFrame(&response, &error, 30.0)) << error;
  std::optional<JsonValue> shed = ParseJson(response);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->GetString("status"), "shed");
  EXPECT_EQ(shed->GetString("reason"), "draining");

  ASSERT_TRUE(holder->ReceiveFrame(&response, &error, 60.0)) << error;
  std::optional<JsonValue> held = ParseJson(response);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->GetString("status"), "ok");

  server_->Wait();
  ServeTotals totals = server_->totals();
  EXPECT_EQ(totals.requests, 2u);
  EXPECT_EQ(totals.succeeded, 1u);
  EXPECT_EQ(totals.shed, 1u);
  EXPECT_EQ(totals.requests, totals.Accounted());
  EXPECT_GT(totals.wall_seconds, 0.0);
}

TEST_F(ServerTest, ServeCountersPublishTotalsOnceAtDrain) {
  // Each outcome is counted once, in totals(); Wait() publishes the serve.*
  // counters from it when the drain finishes, and only then.
  const std::vector<std::pair<std::string, uint64_t ServeTotals::*>> counters = {
      {"serve.requests", &ServeTotals::requests},
      {"serve.ok", &ServeTotals::succeeded},
      {"serve.degraded", &ServeTotals::degraded},
      {"serve.shed", &ServeTotals::shed},
      {"serve.deadline", &ServeTotals::deadline},
      {"serve.failed", &ServeTotals::failed},
      {"serve.protocol_errors", &ServeTotals::protocol_errors},
      {"serve.connections", &ServeTotals::connections},
      {"serve.cached_responses", &ServeTotals::cached},
      {"serve.engine_rebuilds", &ServeTotals::engine_rebuilds},
  };
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto deltas = [&](const std::vector<uint64_t>& since) {
    std::vector<uint64_t> out;
    for (size_t i = 0; i < counters.size(); ++i) {
      out.push_back(registry.GetCounter(counters[i].first).value() - since[i]);
    }
    return out;
  };
  const std::vector<uint64_t> before = deltas(std::vector<uint64_t>(counters.size(), 0));

  StartServer(ServerOptions{});
  Sources sources = GenerateSources(19, "count", 2);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(Call(*client, AnalyzeRequest("a", "p", sources, 1)).GetString("status"), "ok");
  EXPECT_TRUE(Call(*client, AnalyzeRequest("b", "p", sources, 1)).GetBool("cached"));
  // A new fault plan rebuilds the project's engine; rate 1 degrades.
  EXPECT_EQ(Call(*client, AnalyzeRequest("c", "p", sources, 1, "42:1.0")).GetString("status"),
            "degraded");
  EXPECT_EQ(Call(*client, AnalyzeRequest("d", "p", sources, 1, "not-a-spec")).GetString("status"),
            "error");
  EXPECT_EQ(Call(*client, SimpleRequest("e", "ping")).GetString("status"), "ok");
  EXPECT_EQ(deltas(before), std::vector<uint64_t>(counters.size(), 0))
      << "serve.* counters moved before the drain";

  DrainAndWait();
  const ServeTotals totals = server_->totals();
  EXPECT_EQ(totals.requests, 5u);
  EXPECT_EQ(totals.cached, 1u);
  EXPECT_EQ(totals.degraded, 1u);
  EXPECT_EQ(totals.failed, 1u);
  EXPECT_EQ(totals.engine_rebuilds, 1u);
  std::vector<uint64_t> expected;
  for (const auto& [name, field] : counters) {
    expected.push_back(totals.*field);
  }
  EXPECT_EQ(deltas(before), expected);
  server_->Wait();  // a second Wait() publishes nothing more
  EXPECT_EQ(deltas(before), expected);
}

TEST_F(ServerTest, ShutdownMethodStartsTheDrainAndStillResponds) {
  StartServer(ServerOptions{});
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  JsonValue response = Call(*client, SimpleRequest("bye", "shutdown"));
  EXPECT_EQ(response.GetString("status"), "ok");
  EXPECT_TRUE(response.GetBool("draining"));
  EXPECT_TRUE(server_->draining());
  server_->Wait();
  ServeTotals totals = server_->totals();
  EXPECT_EQ(totals.requests, totals.Accounted());
}

}  // namespace
}  // namespace vc
