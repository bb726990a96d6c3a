// End-to-end tests for the networked serving stack (serve/server.h):
// loopback answers byte-identical to in-process serving, a deterministic
// ~2x-capacity overload burst that must shed cleanly instead of falling
// over, and the abuse battery — malformed frames, checksum corruption,
// oversized payloads, server-only frame types, slow-loris trickles, and
// mid-request disconnects — all of which the server must survive with
// the right counters. tools/ci.sh runs this binary under TSan as the
// concurrent-server race check.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pdms/core/pdms.h"
#include "pdms/obs/metrics.h"
#include "pdms/serve/client.h"
#include "pdms/serve/executor.h"
#include "pdms/serve/server.h"
#include "pdms/serve/wire.h"
#include "pdms/util/check.h"
#include "pdms/util/strings.h"

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

// A running server over the demo network plus the registry observing it.
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

  // Spins until `counter` reaches at least `want` (worker completions
  // land asynchronously via the self-pipe) or ~5s pass.
  bool WaitForCounter(const std::string& counter, uint64_t want) {
    for (int i = 0; i < 1000; ++i) {
      if (metrics_.counter(counter) >= want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  Pdms loader_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<PplServer> server_;
};

// The answer the in-process engine produces for `query`, framed exactly
// as the server frames it, with the volatile server_ms field zeroed.
std::string ExpectedAnswerBytes(uint64_t request_id,
                                const std::string& query) {
  ReformulationOptions options;
  options.threads = 1;  // the server's worker facades are serial
  Pdms pdms(options);
  Status loaded = pdms.LoadProgram(kProgram);
  PDMS_CHECK_MSG(loaded.ok(), loaded.ToString().c_str());
  Result<AnswerResult> result = pdms.AnswerWithReport(query);
  wire::AnswerFrame frame = MakeAnswerFrame(request_id, result, 0.0);
  return wire::EncodeAnswer(frame);
}

std::string NormalizedAnswerBytes(wire::AnswerFrame answer) {
  answer.server_ms = 0.0;
  return wire::EncodeAnswer(answer);
}

TEST(Serving, LoopbackAnswerIsByteIdenticalToInProcess) {
  ServerFixture fixture((ServerOptions()));
  Client client;
  fixture.Connect(&client);

  ASSERT_TRUE(client.Ping().ok());
  auto reply = client.Query(kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply->shed);
  EXPECT_EQ(reply->answer.status_code, 0u);
  EXPECT_GT(reply->answer.server_ms, 0.0);
  EXPECT_EQ(NormalizedAnswerBytes(reply->answer),
            ExpectedAnswerBytes(reply->answer.request_id, kQuery));

  // A second query hits the shared plan cache; bytes must not change.
  auto again = client.Query(kQuery);
  ASSERT_TRUE(again.ok());
  ASSERT_FALSE(again->shed);
  EXPECT_EQ(NormalizedAnswerBytes(again->answer),
            ExpectedAnswerBytes(again->answer.request_id, kQuery));

  client.Close();
  fixture.server()->Stop();
  EXPECT_EQ(fixture.metrics()->counter("serve.requests"), 2u);
  EXPECT_EQ(fixture.metrics()->counter("serve.completed"), 2u);
  EXPECT_EQ(fixture.metrics()->counter("serve.protocol_errors"), 0u);
}

TEST(Serving, QueryErrorsTravelTheWireAsStatusCodes) {
  ServerFixture fixture((ServerOptions()));
  Client client;
  fixture.Connect(&client);
  auto reply = client.Query("this is not a conjunctive query");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply->shed);
  EXPECT_NE(reply->answer.status_code, 0u);
  EXPECT_FALSE(reply->answer.status().ok());
  EXPECT_TRUE(reply->answer.tuples.empty());
}

// The deterministic overload drill: one worker padded to a 20ms service
// floor (capacity 50 qps), admission queue bounded at 4, and a client
// that fires a 40-query pipelined burst — roughly 2x what the queue and
// worker can absorb before the first completion. The server must answer
// some, shed the rest with well-formed retry-after frames, keep the
// queue bounded, and never crash or corrupt an answer.
TEST(Serving, OverloadBurstShedsCleanlyAndAnswersStayCorrect) {
  ServerOptions options;
  options.executor.workers = 1;
  options.executor.service_floor_ms = 20;
  options.executor.admission.max_queue = 4;
  ServerFixture fixture(options);
  Client client;
  fixture.Connect(&client);

  constexpr uint64_t kBurst = 40;
  std::string burst;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    wire::QueryFrame query;
    query.request_id = id;
    query.budget_ms = 0;  // no deadline: only queue-full shedding here
    query.query = kQuery;
    burst += wire::EncodeQuery(query);
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());

  const std::string expected_payload =
      ExpectedAnswerBytes(0, kQuery).substr(wire::kHeaderBytes +
                                            /*request_id*/ 8);
  std::map<uint64_t, int> seen;  // request_id -> replies (must be 1)
  uint64_t answers = 0;
  uint64_t sheds = 0;
  for (uint64_t i = 0; i < kBurst; ++i) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->type == wire::FrameType::kAnswer) {
      auto answer = wire::DecodeAnswer(*frame);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ++seen[answer->request_id];
      ++answers;
      // Every admitted request's answer is byte-identical to in-process
      // serving (modulo its id and timing field).
      EXPECT_EQ(NormalizedAnswerBytes(*answer).substr(wire::kHeaderBytes + 8),
                expected_payload)
          << "request " << answer->request_id;
    } else {
      ASSERT_EQ(frame->type, wire::FrameType::kShed);
      auto shed = wire::DecodeShed(*frame);
      ASSERT_TRUE(shed.ok()) << shed.status().ToString();
      ++seen[shed->request_id];
      ++sheds;
      EXPECT_EQ(shed->reason, wire::ShedReason::kQueueFull);
      EXPECT_GE(shed->retry_after_ms,
                options.executor.admission.retry_after_floor_ms);
      EXPECT_LE(shed->queue_depth, 4u);
      EXPECT_EQ(shed->message, "admission queue full");
    }
  }

  // Exactly one response per request, none dropped, none duplicated.
  EXPECT_EQ(answers + sheds, kBurst);
  EXPECT_EQ(seen.size(), kBurst);
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1) << "request " << id;
  }
  // The burst outran a 4-deep queue on a 20ms floor: both outcomes must
  // actually occur, and admissions stay near the queue bound (the burst
  // lands in well under the time the worker needs to drain it).
  EXPECT_GE(sheds, kBurst / 2);
  EXPECT_GE(answers, 1u);

  client.Close();
  fixture.server()->Stop();
  const auto counters = fixture.metrics()->counters();
  EXPECT_EQ(counters.at("serve.requests"), kBurst);
  EXPECT_EQ(counters.at("serve.shed_queue_full"), sheds);
  EXPECT_EQ(counters.at("serve.completed"), answers);
  EXPECT_EQ(fixture.metrics()->counter("serve.protocol_errors"), 0u);
  EXPECT_EQ(fixture.metrics()->counter("serve.slow_consumer_closed"), 0u);
}

TEST(Serving, DeadlineBudgetsShedUnderOverload) {
  // Same drill but every request carries a 5ms budget against a 30ms
  // floor: whatever is not shed for queue depth is shed for deadline —
  // at admission (expected wait too long once the EWMA learns the floor)
  // or at dequeue (expired while queued). At most one early request per
  // worker can complete before the estimate catches up.
  ServerOptions options;
  options.executor.workers = 1;
  options.executor.service_floor_ms = 30;
  options.executor.admission.max_queue = 8;
  ServerFixture fixture(options);
  Client client;
  fixture.Connect(&client);

  constexpr uint64_t kBurst = 12;
  std::string burst;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    wire::QueryFrame query;
    query.request_id = id;
    query.budget_ms = 5;
    query.query = kQuery;
    burst += wire::EncodeQuery(query);
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());

  uint64_t deadline_sheds = 0;
  for (uint64_t i = 0; i < kBurst; ++i) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->type != wire::FrameType::kShed) continue;
    auto shed = wire::DecodeShed(*frame);
    ASSERT_TRUE(shed.ok());
    if (shed->reason == wire::ShedReason::kDeadline) ++deadline_sheds;
  }
  EXPECT_GE(deadline_sheds, kBurst / 2);
  client.Close();
  fixture.server()->Stop();
  EXPECT_EQ(fixture.metrics()->counter("serve.shed_deadline"),
            deadline_sheds);
}

TEST(Serving, MalformedFrameClosesOnlyThatConnection) {
  ServerFixture fixture((ServerOptions()));
  Client victim;
  fixture.Connect(&victim);
  ASSERT_TRUE(victim.SendRaw("this is definitely not a PDMS frame").ok());
  auto frame = victim.ReadFrame();
  EXPECT_FALSE(frame.ok());  // server closed the connection

  // The server is unharmed: a fresh connection gets real answers.
  Client fresh;
  fixture.Connect(&fresh);
  auto reply = fresh.Query(kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->shed);
  EXPECT_GE(fixture.metrics()->counter("serve.protocol_errors"), 1u);
}

TEST(Serving, ChecksumCorruptionIsAProtocolError) {
  ServerFixture fixture((ServerOptions()));
  Client client;
  fixture.Connect(&client);
  wire::QueryFrame query;
  query.request_id = 1;
  query.query = kQuery;
  std::string bytes = wire::EncodeQuery(query);
  bytes[bytes.size() - 1] ^= 0x40;
  ASSERT_TRUE(client.SendRaw(bytes).ok());
  EXPECT_FALSE(client.ReadFrame().ok());
  fixture.server()->Stop();
  EXPECT_GE(fixture.metrics()->counter("serve.protocol_errors"), 1u);
}

TEST(Serving, OversizedDeclaredPayloadIsRejectedFromTheHeader) {
  ServerOptions options;
  options.limits.max_payload_bytes = 1024;
  ServerFixture fixture(options);
  Client client;
  fixture.Connect(&client);
  // A valid header declaring a 256MiB payload, with no payload behind
  // it: the server must reject on the declaration, not buffer toward it.
  wire::QueryFrame query;
  query.request_id = 1;
  query.query = kQuery;
  std::string bytes = wire::EncodeQuery(query).substr(0, wire::kHeaderBytes);
  const uint32_t huge = 256u << 20;
  std::memcpy(&bytes[8], &huge, sizeof(huge));
  ASSERT_TRUE(client.SendRaw(bytes).ok());
  EXPECT_FALSE(client.ReadFrame().ok());
  fixture.server()->Stop();
  EXPECT_GE(fixture.metrics()->counter("serve.protocol_errors"), 1u);
}

TEST(Serving, AnswerOverTheFrameCapIsAnErrorAndTheConnectionSurvives) {
  // 64 doctors make the full answer far larger than a 1 KiB frame cap;
  // one doctor's row fits.
  Pdms loader;
  ASSERT_TRUE(loader.LoadProgram(kProgram).ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(loader
                    .Insert("hdoc", {Value::String(StrFormat("doctor%02d", i)),
                                     Value::String("general")})
                    .ok());
  }
  ServerOptions options;
  options.limits.max_payload_bytes = 1024;
  obs::MetricsRegistry metrics;
  PplServer server(options, &metrics);
  ASSERT_TRUE(server.Start(loader.network(), loader.database()).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 10000).ok());

  auto big = client.Query(kQuery);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  ASSERT_FALSE(big->shed);
  EXPECT_EQ(big->answer.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(big->answer.status_message.find("exceeds the 1024-byte"),
            std::string::npos)
      << big->answer.status_message;
  EXPECT_TRUE(big->answer.tuples.empty());

  auto small = client.Query("q(h) :- Hospital:Doctor(\"alice\", h).");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ASSERT_FALSE(small->shed);
  ASSERT_TRUE(small->answer.status().ok()) << small->answer.status_message;
  ASSERT_EQ(small->answer.tuples.size(), 1u);
  EXPECT_EQ(small->answer.tuples[0][0], Value::String("county"));

  client.Close();
  server.Stop();
  EXPECT_EQ(metrics.counter("serve.oversized_answers"), 1u);
  EXPECT_EQ(metrics.counter("serve.protocol_errors"), 0u);
}

TEST(Serving, ServerOnlyFrameTypesFromClientsAreRejected) {
  ServerFixture fixture((ServerOptions()));
  Client client;
  fixture.Connect(&client);
  wire::ShedFrame shed;
  shed.request_id = 1;
  ASSERT_TRUE(client.SendRaw(wire::EncodeShed(shed)).ok());
  EXPECT_FALSE(client.ReadFrame().ok());
  EXPECT_GE(fixture.metrics()->counter("serve.protocol_errors"), 1u);
}

TEST(Serving, SlowLorisTricklerIsDisconnected) {
  ServerOptions options;
  options.read_deadline_ms = 150;
  ServerFixture fixture(options);
  Client client;
  fixture.Connect(&client);
  // Half a frame, then silence: the partial-frame clock starts at the
  // first byte and never resets, so the server must cut the connection.
  wire::QueryFrame query;
  query.request_id = 1;
  query.query = kQuery;
  std::string bytes = wire::EncodeQuery(query);
  ASSERT_TRUE(client.SendRaw(bytes.substr(0, bytes.size() / 2)).ok());
  auto frame = client.ReadFrame();  // blocks until the server closes
  EXPECT_FALSE(frame.ok());
  EXPECT_TRUE(fixture.WaitForCounter("serve.read_timeouts", 1));
}

TEST(Serving, MidRequestDisconnectOrphansTheAnswer) {
  ServerOptions options;
  options.executor.workers = 1;
  options.executor.service_floor_ms = 50;
  ServerFixture fixture(options);
  Client client;
  fixture.Connect(&client);
  wire::QueryFrame query;
  query.request_id = 1;
  query.query = kQuery;
  ASSERT_TRUE(client.SendRaw(wire::EncodeQuery(query)).ok());
  // Wait until the request is in the worker, then vanish.
  ASSERT_TRUE(fixture.WaitForCounter("serve.admitted", 1));
  client.Close();
  // The worker finishes anyway; the completion finds no connection and
  // is dropped without hurting anyone.
  EXPECT_TRUE(fixture.WaitForCounter("serve.orphaned_responses", 1));
  fixture.server()->Stop();
  EXPECT_EQ(fixture.metrics()->counter("serve.completed"), 1u);
}

TEST(Serving, ScanRequestsServeStoredRelationsLikeASimPeer) {
  ServerFixture fixture((ServerOptions()));
  Client client;
  fixture.Connect(&client);
  auto scan = client.ScanRelation("hdoc");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->status.ok());
  EXPECT_EQ(scan->arity, 2u);
  ASSERT_EQ(scan->tuples.size(), 2u);
  const Relation* local = fixture.loader()->database().Find("hdoc");
  ASSERT_NE(local, nullptr);
  EXPECT_EQ(scan->tuples, local->tuples());

  auto missing = client.ScanRelation("no_such_relation");
  ASSERT_TRUE(missing.ok());  // transport ok, payload carries the error
  EXPECT_FALSE(missing->status.ok());
  EXPECT_TRUE(missing->tuples.empty());
}

TEST(Serving, ConcurrentClientsShareTheServerSafely) {
  // The TSan target: several client threads hammer one server with
  // queries, pings, and scans while two workers evaluate through the
  // shared caches. Correctness here is "every reply matches its request
  // and nothing races"; TSan supplies the latter.
  ServerOptions options;
  options.executor.workers = 2;
  ServerFixture fixture(options);
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&fixture, &failures] {
      Client client;
  fixture.Connect(&client);
      for (int i = 0; i < kPerClient; ++i) {
        auto reply = client.Query(kQuery);
        if (!reply.ok() || reply->shed ||
            reply->answer.tuples.size() != 2) {
          ++failures;
          return;
        }
        if (!client.Ping().ok()) {
          ++failures;
          return;
        }
        auto scan = client.ScanRelation("hdoc");
        if (!scan.ok() || scan->tuples.size() != 2) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  fixture.server()->Stop();
  EXPECT_EQ(fixture.metrics()->counter("serve.completed"),
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(fixture.metrics()->counter("serve.protocol_errors"), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace pdms
