// Tests for the live serving telemetry layer (docs/serving_telemetry.md):
// the rolling SLO window, wire-level trace propagation across real TCP
// hops (client -> server -> federated scan), the kStatsRequest snapshot,
// and the NDJSON access log. The cross-process trace test is the
// acceptance check for the version-2 protocol: one federated request
// must yield a single trace id whose span tree covers both server
// processes and exports as one Chrome trace.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pdms/core/pdms.h"
#include "pdms/lang/canonical.h"
#include "pdms/obs/export.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/rolling.h"
#include "pdms/obs/trace.h"
#include "pdms/serve/access_log.h"
#include "pdms/serve/client.h"
#include "pdms/serve/server.h"
#include "pdms/serve/wire.h"
#include "pdms/util/check.h"

namespace pdms {
namespace serve {
namespace {

constexpr const char* kProgram = R"(
peer Hospital { relation Doctor(name, hospital); }
peer Clinic { relation Physician(name, clinic); }
stored hdoc(name, hospital) <= Hospital:Doctor(name, hospital).
mapping Clinic:Physician(n, c) :- Hospital:Doctor(n, c).
fact hdoc("alice", "county").
fact hdoc("bo", "mercy").
)";

constexpr const char* kQuery = "q(n, h) :- Hospital:Doctor(n, h).";

// A running server over the demo network (same shape as the overload
// test fixture, plus the telemetry sinks threaded through the options).
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options) {
    Status loaded = loader_.LoadProgram(kProgram);
    PDMS_CHECK_MSG(loaded.ok(), loaded.ToString().c_str());
    options.port = 0;  // ephemeral
    server_ = std::make_unique<PplServer>(options, &metrics_);
    Status started = server_->Start(loader_.network(), loader_.database());
    PDMS_CHECK_MSG(started.ok(), started.ToString().c_str());
  }

  PplServer* server() { return server_.get(); }
  uint16_t port() const { return server_->port(); }
  obs::MetricsRegistry* metrics() { return &metrics_; }
  Pdms* loader() { return &loader_; }

  void Connect(Client* client, double io_timeout_ms = 10000) {
    Status status = client->Connect("127.0.0.1", port(), io_timeout_ms);
    PDMS_CHECK_MSG(status.ok(), status.ToString().c_str());
  }

 private:
  Pdms loader_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<PplServer> server_;
};

bool HasSpan(const obs::TraceContext& trace, const std::string& name) {
  for (const obs::Span& s : trace.spans()) {
    if (s.name == name) return true;
  }
  return false;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- Rolling SLO window (deterministic: the test owns the clock) ---

obs::RollingOptions SmallRolling() {
  obs::RollingOptions options;
  options.bucket_ms = 1000;
  options.buckets = 60;
  options.latency_bounds = {1, 10, 100};
  return options;
}

TEST(RollingStats, WindowAggregatesCountsRatesAndPercentiles) {
  obs::RollingStats rolling(SmallRolling());
  rolling.RecordAnswer(100, 5.0, /*cache_hit=*/true, /*verdict=*/0,
                       /*truncated=*/false);
  rolling.RecordAnswer(600, 50.0, /*cache_hit=*/false, /*verdict=*/1,
                       /*truncated=*/true);
  rolling.RecordShed(700, obs::RollingStats::Shed::kQueueFull);
  rolling.RecordShed(750, obs::RollingStats::Shed::kDeadline);
  rolling.RecordQueueDepth(800, 5);
  rolling.RecordQueueDepth(900, 2);

  obs::RollingStats::Snapshot snap = rolling.GetSnapshot(950);
  EXPECT_EQ(snap.answers, 2u);
  EXPECT_EQ(snap.sheds_queue_full, 1u);
  EXPECT_EQ(snap.sheds_deadline, 1u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_EQ(snap.truncated, 1u);
  EXPECT_EQ(snap.verdicts[0], 1u);
  EXPECT_EQ(snap.verdicts[1], 1u);
  EXPECT_EQ(snap.verdicts[2], 0u);
  EXPECT_DOUBLE_EQ(snap.shed_rate, 0.5);
  EXPECT_DOUBLE_EQ(snap.cache_hit_rate, 0.5);
  // The covered window floors at one bucket, so qps = 2 answers / 1s.
  EXPECT_DOUBLE_EQ(snap.window_ms, 1000.0);
  EXPECT_DOUBLE_EQ(snap.qps, 2.0);
  // Histogram estimates: 5ms lands under the 10ms bound; 50ms overflows
  // into the 100ms bound but is clamped by the exact window max.
  EXPECT_DOUBLE_EQ(snap.p50_ms, 10.0);
  EXPECT_DOUBLE_EQ(snap.p99_ms, 50.0);
  EXPECT_DOUBLE_EQ(snap.max_ms, 50.0);
  EXPECT_EQ(snap.queue_depth, 2u);
  EXPECT_EQ(snap.queue_depth_max, 5u);

  const std::string json = snap.ToJson();
  for (const char* key :
       {"\"window_ms\"", "\"answers\"", "\"qps\"", "\"shed_rate\"",
        "\"cache_hit_rate\"", "\"p50_ms\"", "\"p95_ms\"", "\"p99_ms\"",
        "\"verdicts\"", "\"queue_depth\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(RollingStats, CountsExpireOnceTheWindowRotatesPast) {
  obs::RollingStats rolling(SmallRolling());
  rolling.RecordAnswer(500, 1.0, false, 0, false);
  EXPECT_EQ(rolling.GetSnapshot(500).answers, 1u);
  // 61 buckets later the recording bucket is outside the live window.
  EXPECT_EQ(rolling.GetSnapshot(500 + 61 * 1000.0).answers, 0u);
  EXPECT_DOUBLE_EQ(rolling.GetSnapshot(500 + 61 * 1000.0).qps, 0.0);
}

TEST(RollingStats, RingSlotReuseDropsTheRotatedBucket) {
  obs::RollingStats rolling(SmallRolling());
  rolling.RecordAnswer(500, 1.0, false, 0, false);  // epoch 0
  // Exactly one full ring later the same slot is reused for epoch 60;
  // the old bucket's counts must not leak into the new window.
  rolling.RecordAnswer(60 * 1000.0 + 500, 2.0, true, 0, false);
  obs::RollingStats::Snapshot snap = rolling.GetSnapshot(60 * 1000.0 + 900);
  EXPECT_EQ(snap.answers, 1u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.cache_misses, 0u);
}

// --- Wire-level trace propagation ---

TEST(Telemetry, TracedQueryEchoesEnvelopeTraceIdWithServerSpans) {
  ServerFixture fixture((ServerOptions()));
  Client client;
  fixture.Connect(&client);

  wire::QueryFrame query;
  query.request_id = 1;
  query.query = kQuery;
  query.trace = wire::TraceEnvelope{"trace-abc", 7};
  ASSERT_TRUE(client.SendRaw(wire::EncodeQuery(query)).ok());
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  // The server answers in the version of the request: traced in, traced
  // out.
  EXPECT_EQ(frame->version, wire::kVersionTraced);
  EXPECT_EQ(frame->flags, wire::kFlagTrace);
  auto answer = wire::DecodeAnswer(*frame);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_TRUE(answer->spans.has_value());
  EXPECT_EQ(answer->spans->trace_id, "trace-abc");
  bool has_serve = false;
  for (const obs::Span& s : answer->spans->spans) {
    if (s.name == "serve") has_serve = true;
    EXPECT_FALSE(s.open()) << s.name << " returned open";
  }
  EXPECT_TRUE(has_serve);
}

TEST(Telemetry, UntracedVersion1ClientRoundTripsUnchanged) {
  ServerFixture fixture((ServerOptions()));
  Client client;
  fixture.Connect(&client);

  wire::QueryFrame query;
  query.request_id = 1;
  query.query = kQuery;  // no envelope: encoder emits version 1
  ASSERT_TRUE(client.SendRaw(wire::EncodeQuery(query)).ok());
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->version, wire::kVersion);
  EXPECT_EQ(frame->flags, 0u);
  auto answer = wire::DecodeAnswer(*frame);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->spans.has_value());
  EXPECT_EQ(answer->status_code, 0u);
  EXPECT_EQ(answer->tuples.size(), 2u);
}

TEST(Telemetry, FederatedRequestYieldsOneCrossProcessTrace) {
  // Server B owns the stored relation; server A serves queries but
  // re-fetches `hdoc` from B over a traced kScanRequest hop. One traced
  // client query must therefore produce a single trace id covering the
  // client rpc span, A's serve/remote_fetch/rpc_scan spans, and B's scan
  // span — the whole federated request as one tree.
  ServerFixture upstream((ServerOptions()));
  ServerOptions options;
  options.executor.remote_relations["hdoc"] =
      "127.0.0.1:" + std::to_string(upstream.port());
  ServerFixture fixture(options);

  Client client;
  fixture.Connect(&client);
  obs::TraceContext trace("federated-trace");
  auto reply = client.Query(kQuery, /*budget_ms=*/0, &trace);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply->shed);
  EXPECT_EQ(reply->answer.tuples.size(), 2u);
  // The client grafts the server block into its own context; nothing is
  // left dangling on the reply.
  EXPECT_FALSE(reply->answer.spans.has_value());

  EXPECT_EQ(trace.trace_id(), "federated-trace");
  for (const char* name :
       {"rpc_query", "serve", "remote_fetch", "rpc_scan", "scan"}) {
    EXPECT_TRUE(HasSpan(trace, name)) << "missing span " << name;
  }
  // Every span is closed and every parent resolves inside this one
  // context (the grafts rewired the foreign ids).
  for (const obs::Span& s : trace.spans()) {
    EXPECT_FALSE(s.open()) << s.name;
    if (s.parent != obs::kNoSpan) {
      EXPECT_NE(trace.span(s.parent), nullptr) << s.name;
    }
  }

  // The whole tree exports as one Chrome trace.
  const std::string chrome = obs::ChromeTraceJson(trace);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  for (const char* name : {"serve", "remote_fetch", "scan"}) {
    EXPECT_NE(chrome.find(name), std::string::npos) << name;
  }
  const std::string path = testing::TempDir() + "/pdms_federated_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(trace, path).ok());
  EXPECT_EQ(ReadWholeFile(path), chrome) << "file mismatch";
  std::remove(path.c_str());

  // Remote-scan health surfaced through the downstream server's stats.
  Client stats_client;
  fixture.Connect(&stats_client);
  auto stats = stats_client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"remotes\""), std::string::npos);
  EXPECT_NE(stats->find("127.0.0.1:"), std::string::npos);
}

// A port on which nothing listens: bound, read back, and closed again,
// so a connection to it is refused at once.
uint16_t ClosedPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PDMS_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  PDMS_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
             0);
  socklen_t len = sizeof(addr);
  PDMS_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
             0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(Telemetry, ReplicaRoutingAvoidsAReplicaThatOnlyFails) {
  // `hdoc` has two replicas: a closed port, listed first so the first
  // query probes it, and a live server with 2,002 tuples, whose scans are
  // slower than a refused connection. After each has been tried once the
  // live replica must serve every scan: a replica that has only failed
  // never out-ranks one that has succeeded, however fast it fails.
  Pdms live_data;
  ASSERT_TRUE(live_data.LoadProgram(kProgram).ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(live_data
                    .Insert("hdoc", {Value::String("doc" + std::to_string(i)),
                                     Value::String("general")})
                    .ok());
  }
  ServerOptions live_options;
  live_options.port = 0;
  PplServer live(live_options);
  ASSERT_TRUE(live.Start(live_data.network(), live_data.database()).ok());

  ServerOptions options;
  options.executor.remote_relations["hdoc"] =
      "127.0.0.1:" + std::to_string(ClosedPort()) +
      "|127.0.0.1:" + std::to_string(live.port());
  ServerFixture fixture(options);
  Client client;
  fixture.Connect(&client);
  constexpr uint64_t kQueries = 40;
  for (uint64_t i = 0; i < kQueries; ++i) {
    auto reply = client.Query(kQuery);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_FALSE(reply->shed);
    // The first query's only fetch failed, so it read the local copy.
    EXPECT_EQ(reply->answer.tuples.size(), i == 0 ? 2u : 2002u) << i;
  }
  EXPECT_EQ(fixture.metrics()->counter("serve.remote_scan_failures"), 1u);
  EXPECT_EQ(fixture.metrics()->counter("serve.remote_scans"), kQueries - 1);
  live.Stop();
}

TEST(Telemetry, TracedScanEchoesEnvelopeOnTheScanPath) {
  ServerFixture fixture((ServerOptions()));
  Client client;
  fixture.Connect(&client);
  obs::TraceContext trace("scan-trace");
  obs::SpanId root = trace.StartSpan("test_root");
  auto scan = client.ScanRelation("hdoc", &trace);
  trace.EndSpan(root);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->status.ok());
  EXPECT_EQ(scan->tuples.size(), 2u);
  EXPECT_TRUE(HasSpan(trace, "rpc_scan"));
  EXPECT_TRUE(HasSpan(trace, "scan"));  // grafted from the server
}

// --- Stats frame ---

TEST(Telemetry, StatsFrameReturnsRollingSloSnapshot) {
  obs::RollingStats rolling;
  ServerOptions options;
  options.executor.rolling = &rolling;
  ServerFixture fixture(options);
  Client client;
  fixture.Connect(&client);

  for (int i = 0; i < 3; ++i) {
    auto reply = client.Query(kQuery);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_FALSE(reply->shed);
  }

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const char* key :
       {"\"rolling\"", "\"answers\": 3", "\"qps\"", "\"shed_rate\"",
        "\"cache_hit_rate\"", "\"p50_ms\"", "\"p95_ms\"", "\"p99_ms\"",
        "\"admission\"", "\"queue_depth\"", "\"server\"",
        "\"connections\"", "\"metrics\""}) {
    EXPECT_NE(stats->find(key), std::string::npos)
        << key << " missing from " << *stats;
  }
  // Two of the three queries hit the shared plan cache.
  EXPECT_NE(stats->find("\"cache_hits\": 2"), std::string::npos) << *stats;
}

TEST(Telemetry, StatsFrameWithoutRollingSinkReportsNull) {
  ServerFixture fixture((ServerOptions()));
  Client client;
  fixture.Connect(&client);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"rolling\": null"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"server\""), std::string::npos);
}

// --- Access log ---

TEST(AccessLog, LineSchemaEscapingAndRotation) {
  const std::string path = testing::TempDir() + "/pdms_access_test.log";
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());

  AccessLogOptions options;
  options.path = path;
  // Sized so the four ~230-byte lines force exactly one rotation (the
  // log keeps at most two files; a second rotation would discard the
  // first file's lines).
  options.rotate_bytes = 600;
  auto opened = AccessLog::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<AccessLog> log = std::move(*opened);

  AccessEntry entry;
  entry.ts_ms = 1234.5;
  entry.conn_id = 7;
  entry.request_id = 9;
  entry.query = "q(x) :- r(x, \"quoted\nvalue\").";
  entry.deadline_ms = 50;
  entry.queue_ms = 1.5;
  entry.exec_ms = 3.25;
  entry.total_ms = 4.75;
  entry.cache_hit = true;
  entry.verdict = 0;
  entry.trace_id = "t-1";
  for (int i = 0; i < 4; ++i) log->Append(entry);
  log->Flush();
  EXPECT_EQ(log->lines_written(), 4u);
  EXPECT_EQ(log->rotations(), 1u);

  // Every surviving line is one flat JSON object with the full schema,
  // and the embedded quote/newline are escaped (NDJSON: no raw newlines
  // inside a line).
  const std::string content = ReadWholeFile(path) + ReadWholeFile(rotated);
  std::stringstream lines(content);
  std::string line;
  size_t seen = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++seen;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* key :
         {"\"ts_ms\"", "\"conn\": 7", "\"req\": 9", "\"query\"",
          "\"deadline_ms\": 50", "\"queue_ms\"", "\"exec_ms\"",
          "\"total_ms\"", "\"shed\": \"\"", "\"cache_hit\": true",
          "\"verdict\": 0", "\"trace_id\": \"t-1\""}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    }
    EXPECT_NE(line.find("\\\"quoted\\nvalue\\\""), std::string::npos);
  }
  EXPECT_EQ(seen, 4u);
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

TEST(Telemetry, ServerWritesCanonicalAccessLogLines) {
  const std::string path = testing::TempDir() + "/pdms_server_access.log";
  std::remove(path.c_str());
  auto opened = AccessLog::Open({path});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<AccessLog> log = std::move(*opened);

  obs::RollingStats rolling;
  ServerOptions options;
  options.executor.rolling = &rolling;
  options.executor.access_log = log.get();
  ServerFixture fixture(options);
  Client client;
  fixture.Connect(&client);

  auto first = client.Query(kQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = client.Query(kQuery);  // plan-cache hit
  ASSERT_TRUE(second.ok());
  client.Close();
  fixture.server()->Stop();
  log->Flush();
  EXPECT_EQ(log->lines_written(), 2u);

  // Answered lines carry the canonical query form (stable under variable
  // renaming), a completeness verdict, and the cache-hit bit.
  Result<ConjunctiveQuery> parsed = fixture.loader()->ParseQuery(kQuery);
  ASSERT_TRUE(parsed.ok());
  const std::string canonical = CanonicalQueryKey(*parsed);
  const std::string content = ReadWholeFile(path);
  std::stringstream lines(content);
  std::string line;
  std::vector<std::string> entries;
  while (std::getline(lines, line)) {
    if (!line.empty()) entries.push_back(line);
  }
  ASSERT_EQ(entries.size(), 2u);
  for (const std::string& l : entries) {
    EXPECT_NE(l.find("\"shed\": \"\""), std::string::npos) << l;
    EXPECT_NE(l.find("\"verdict\": 0"), std::string::npos) << l;
    EXPECT_NE(l.find(canonical.substr(0, canonical.size() - 1)),
              std::string::npos)
        << "canonical query " << canonical << " not in " << l;
  }
  EXPECT_NE(entries[0].find("\"cache_hit\": false"), std::string::npos);
  EXPECT_NE(entries[1].find("\"cache_hit\": true"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace pdms
