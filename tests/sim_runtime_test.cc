// Unit tests for the simulated peer runtime: event-loop determinism and
// bounds, SimNetwork fault handling (drop / duplicate / delay / partition),
// peer nodes, and end-to-end distributed answering with SimPdms on
// hand-built programs. The seeded many-schedule properties live in
// sim_dst_test.cc; these tests pin down the primitives.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
#include "pdms/sim/event_loop.h"
#include "pdms/sim/peer_node.h"
#include "pdms/sim/sim_network.h"
#include "pdms/sim/sim_pdms.h"

namespace pdms {
namespace sim {
namespace {

// --- EventLoop ---

TEST(EventLoopTest, FiresInTimeOrderWithFifoTies) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(5.0, [&] { order.push_back(3); });
  loop.Schedule(1.0, [&] { order.push_back(1); });
  loop.Schedule(1.0, [&] { order.push_back(2); });  // same time: FIFO
  ASSERT_TRUE(loop.Run(100).ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now_ms(), 5.0);
}

TEST(EventLoopTest, EventsCanScheduleEvents) {
  EventLoop loop;
  std::vector<double> times;
  loop.Schedule(1.0, [&] {
    times.push_back(loop.now_ms());
    loop.Schedule(2.0, [&] { times.push_back(loop.now_ms()); });
  });
  ASSERT_TRUE(loop.Run(100).ok());
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(EventLoopTest, DrivesTheFaultInjectorClock) {
  FaultInjector clock(7);
  clock.AdvanceClock(10.0);
  EventLoop loop(&clock);
  EXPECT_DOUBLE_EQ(loop.now_ms(), 10.0);
  loop.Schedule(5.0, [] {});
  ASSERT_TRUE(loop.Run(1000).ok());
  // The injector's clock — the fault layer's timeline — moved with the loop.
  EXPECT_DOUBLE_EQ(clock.now_ms(), 15.0);
}

TEST(EventLoopTest, VirtualTimeBoundDetectsRunaway) {
  EventLoop loop;
  // An event chain that reschedules itself forever.
  std::function<void()> again = [&] { loop.Schedule(10.0, again); };
  loop.Schedule(10.0, again);
  Status status = loop.Run(500.0);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_LE(loop.now_ms(), 500.0);
}

TEST(EventLoopTest, EventBoundDetectsZeroDelayCycle) {
  EventLoop loop;
  std::function<void()> again = [&] { loop.Schedule(0, again); };
  loop.Schedule(0, again);
  Status status = loop.Run(1000.0, /*max_events=*/1000);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

// --- SimNetwork ---

Message ScanRequest(uint64_t id, const std::string& relation) {
  Message m;
  m.type = Message::Type::kScanRequest;
  m.request_id = id;
  m.relation = relation;
  return m;
}

TEST(SimNetworkTest, DeliversToRegisteredHandler) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  std::vector<std::string> got;
  net.Register("B", [&](const std::string& src, const Message& m) {
    got.push_back(src + "/" + m.relation);
  });
  net.Send("A", "B", ScanRequest(1, "s1"));
  ASSERT_TRUE(loop.Run(100).ok());
  EXPECT_EQ(got, (std::vector<std::string>{"A/s1"}));
  EXPECT_EQ(net.stats().sent, 1u);
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(SimNetworkTest, DropProbabilityOneLosesEverything) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  LinkFaults faults;
  faults.drop_probability = 1.0;
  net.set_faults(faults);
  size_t delivered = 0;
  net.Register("B", [&](const std::string&, const Message&) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.Send("A", "B", ScanRequest(i, "s"));
  ASSERT_TRUE(loop.Run(100).ok());
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.stats().dropped, 10u);
}

TEST(SimNetworkTest, DuplicateProbabilityOneDeliversTwice) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  LinkFaults faults;
  faults.duplicate_probability = 1.0;
  net.set_faults(faults);
  size_t delivered = 0;
  net.Register("B", [&](const std::string&, const Message&) { ++delivered; });
  net.Send("A", "B", ScanRequest(1, "s"));
  ASSERT_TRUE(loop.Run(100).ok());
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(net.stats().duplicated, 1u);
}

TEST(SimNetworkTest, JitterReordersBackToBackMessages) {
  // With large jitter, ten messages sent at the same instant should not
  // all arrive in send order for this seed (reordering falls out of
  // variable delay, not a dedicated knob).
  EventLoop loop;
  SimNetwork net(&loop, 42);
  LinkFaults faults;
  faults.delay_jitter_ms = 50.0;
  net.set_faults(faults);
  std::vector<uint64_t> arrival;
  net.Register("B", [&](const std::string&, const Message& m) {
    arrival.push_back(m.request_id);
  });
  for (uint64_t i = 0; i < 10; ++i) net.Send("A", "B", ScanRequest(i, "s"));
  ASSERT_TRUE(loop.Run(1000).ok());
  ASSERT_EQ(arrival.size(), 10u);
  std::vector<uint64_t> sorted = arrival;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NE(arrival, sorted);  // order perturbed
  EXPECT_EQ(sorted, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(SimNetworkTest, PartitionBlocksBothDirectionsUntilHealed) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  size_t delivered = 0;
  net.Register("A", [&](const std::string&, const Message&) { ++delivered; });
  net.Register("B", [&](const std::string&, const Message&) { ++delivered; });
  net.Partition("A", "B");
  EXPECT_TRUE(net.IsPartitioned("B", "A"));
  net.Send("A", "B", ScanRequest(1, "s"));
  net.Send("B", "A", ScanRequest(2, "s"));
  ASSERT_TRUE(loop.Run(100).ok());
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.stats().partitioned, 2u);
  net.Heal("B", "A");
  net.Send("A", "B", ScanRequest(3, "s"));
  ASSERT_TRUE(loop.Run(200).ok());
  EXPECT_EQ(delivered, 1u);
}

TEST(SimNetworkTest, SameSeedSameTrace) {
  auto run = [](uint64_t seed) {
    EventLoop loop;
    SimNetwork net(&loop, seed);
    LinkFaults faults;
    faults.drop_probability = 0.3;
    faults.duplicate_probability = 0.2;
    faults.delay_jitter_ms = 4.0;
    net.set_faults(faults);
    net.Register("B", [](const std::string&, const Message&) {});
    for (uint64_t i = 0; i < 20; ++i) net.Send("A", "B", ScanRequest(i, "s"));
    EXPECT_TRUE(net.TraceString().empty() == false);
    (void)loop.Run(1000);
    return net.TraceString();
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

// --- PeerNode ---

TEST(PeerNodeTest, ServesSnapshotsAndReportsUnknownRelations) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  PeerNode peer("P", &net);
  Relation r("s1", 2);
  r.Insert({Value::Int(1), Value::Int(2)});
  peer.ServeRelation(r);

  std::vector<Message> responses;
  net.Register("@client", [&](const std::string&, const Message& m) {
    responses.push_back(m);
  });
  net.Send("@client", "P", ScanRequest(1, "s1"));
  net.Send("@client", "P", ScanRequest(2, "nope"));
  ASSERT_TRUE(loop.Run(100).ok());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[0].tuples.size(), 1u);
  EXPECT_EQ(responses[0].arity, 2u);
  EXPECT_EQ(responses[1].status.code(), StatusCode::kNotFound);
}

TEST(PeerNodeTest, CrashedPeerStaysSilent) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  PeerNode peer("P", &net);
  peer.set_crashed(true);
  size_t responses = 0;
  net.Register("@client",
               [&](const std::string&, const Message&) { ++responses; });
  net.Send("@client", "P", ScanRequest(1, "s1"));
  ASSERT_TRUE(loop.Run(100).ok());
  EXPECT_EQ(responses, 0u);
  EXPECT_EQ(peer.requests_served(), 0u);
}

// --- SimPdms end to end ---

constexpr const char* kProgram = R"(
  peer H { relation Doctor(name, hosp); }
  peer W { relation Staff(name, hosp); }
  mapping (n, h) : W:Staff(n, h) <= H:Doctor(n, h).
  stored h_doc(n, h) <= H:Doctor(n, h).
  stored w_staff(n, h) <= W:Staff(n, h).
  fact h_doc("ada", "central").
  fact w_staff("bob", "north").
)";

Pdms MakeCentral() {
  Pdms pdms;
  EXPECT_TRUE(pdms.LoadProgram(kProgram).ok());
  return pdms;
}

TEST(SimPdmsTest, FaultFreeMatchesInProcessFacade) {
  Pdms central = MakeCentral();
  auto expect = central.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(expect.ok());

  SimPdms sim(central.network(), central.database());
  auto got = sim.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->answers.size(), expect->size());
  for (const Tuple& t : expect->tuples()) {
    EXPECT_TRUE(got->answers.Contains(t));
  }
  EXPECT_EQ(got->degradation.completeness, Completeness::kComplete);
  EXPECT_TRUE(got->degradation.distributed);
  // Both data peers answered one scan each over the wire.
  EXPECT_EQ(got->degradation.access.probes, 2u);
  EXPECT_EQ(got->degradation.access.successes, 2u);
  EXPECT_GE(got->degradation.messages.sent, 4u);  // 2 requests + 2 responses
  EXPECT_EQ(got->degradation.messages.request_timeouts, 0u);
  EXPECT_FALSE(sim.last_trace().empty());
}

TEST(SimPdmsTest, RejectsInvalidQueriesLikeTheFacade) {
  // One validator serves both entry points: an unknown relation is
  // kNotFound, a wrong arity kInvalidArgument, with the same message.
  Pdms central = MakeCentral();
  SimPdms sim(central.network(), central.database());
  for (const char* text : {"q(n) :- H:Nurse(n).", "q(n) :- H:Doctor(n)."}) {
    SCOPED_TRACE(text);
    auto local = central.ParseQuery(text);
    auto simulated = sim.Answer(text);
    ASSERT_FALSE(local.ok());
    ASSERT_FALSE(simulated.ok());
    EXPECT_EQ(simulated.status().code(), local.status().code());
    EXPECT_EQ(simulated.status().ToString(), local.status().ToString());
  }
  EXPECT_EQ(sim.Answer("q(n) :- H:Nurse(n).").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sim.Answer("q(n) :- H:Doctor(n).").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(central.Answer("q(n) :- H:Doctor(n).").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimPdmsTest, PartitionDegradesAndHealRestores) {
  Pdms central = MakeCentral();
  SimPdms sim(central.network(), central.database());
  sim.Partition(kCoordinatorName, "W");

  auto got = sim.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(got.ok());
  // H's relation arrives; W's fetch exhausts retransmits and is excluded.
  EXPECT_EQ(got->degradation.completeness, Completeness::kPartial);
  EXPECT_EQ(got->degradation.excluded_stored,
            (std::vector<std::string>{"w_staff"}));
  EXPECT_EQ(got->degradation.excluded_peers, (std::vector<std::string>{"W"}));
  EXPECT_EQ(got->degradation.access.failures, 1u);
  EXPECT_GT(got->degradation.messages.partitioned, 0u);
  EXPECT_GT(got->degradation.messages.request_timeouts, 0u);
  EXPECT_TRUE(got->answers.Contains({Value::String("ada")}));
  EXPECT_FALSE(got->answers.Contains({Value::String("bob")}));

  sim.HealAll();
  auto healed = sim.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->degradation.completeness, Completeness::kComplete);
  EXPECT_EQ(healed->answers.size(), 2u);
}

TEST(SimPdmsTest, CrashedPeerResolvesByTimeoutOnly) {
  Pdms central = MakeCentral();
  SimPdms sim(central.network(), central.database());
  sim.SetPeerCrashed("H", true);

  auto got = sim.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->degradation.completeness, Completeness::kPartial);
  EXPECT_EQ(got->degradation.excluded_stored,
            (std::vector<std::string>{"h_doc"}));
  // Every transmission to H timed out; retransmits were attempted.
  EXPECT_EQ(got->degradation.messages.request_timeouts,
            sim.options().retry.max_attempts);
  EXPECT_EQ(got->degradation.messages.retransmits,
            sim.options().retry.max_attempts - 1);

  sim.SetPeerCrashed("H", false);
  auto healed = sim.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->degradation.completeness, Completeness::kComplete);
}

TEST(SimPdmsTest, CatalogDownPeerIsPrunedWithoutMessages) {
  Pdms central = MakeCentral();
  PdmsNetwork network = central.network();
  ASSERT_TRUE(network.SetPeerAvailable("W", false).ok());
  SimPdms sim(network, central.database());

  auto got = sim.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->degradation.completeness, Completeness::kPartial);
  // Only H was contacted: the known-down source was pruned before any
  // message was sent, so exactly one round-trip happened.
  EXPECT_EQ(got->degradation.access.probes, 1u);
  EXPECT_EQ(got->degradation.messages.sent, 2u);  // 1 request + 1 response
  EXPECT_EQ(got->degradation.excluded_peers, (std::vector<std::string>{"W"}));
}

TEST(SimPdmsTest, LossyLinkIsAbsorbedByRetransmission) {
  Pdms central = MakeCentral();
  SimOptions options;
  options.seed = 3;
  options.faults.drop_probability = 0.4;
  options.retry.max_attempts = 6;
  SimPdms sim(central.network(), central.database(), options);

  auto got = sim.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(got.ok());
  // Retries absorbed the loss for this seed: complete answers, and the
  // verdict does not punish recovered timeouts.
  EXPECT_EQ(got->degradation.completeness, Completeness::kComplete);
  EXPECT_EQ(got->answers.size(), 2u);
}

TEST(SimPdmsTest, SameSeedReplaysByteIdenticalTrace) {
  Pdms central = MakeCentral();
  SimOptions options;
  options.seed = 11;
  options.faults.drop_probability = 0.3;
  options.faults.duplicate_probability = 0.2;
  options.faults.delay_jitter_ms = 3.0;

  auto run = [&]() {
    SimPdms sim(central.network(), central.database(), options);
    auto got = sim.Answer("q(n) :- H:Doctor(n, h).");
    EXPECT_TRUE(got.ok());
    return sim.last_trace();
  };
  std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(SimPdmsTest, ReportsPlanCacheHits) {
  // The in-process facade sets AnswerResult::plan_cache_hit; the
  // simulated runtime must agree (the serving layer's hit rate reads it).
  Pdms central = MakeCentral();
  cache::PlanCache plans;
  SimPdms sim(central.network(), central.database());
  sim.set_plan_cache(&plans);
  auto first = sim.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->plan_cache_hit);
  auto repeat = sim.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_TRUE(repeat->plan_cache_hit);
  EXPECT_EQ(repeat->answers.ToString(), first->answers.ToString());

  // Without a cache there is nothing to hit.
  SimPdms uncached(central.network(), central.database());
  auto plain = uncached.Answer("q(n) :- H:Doctor(n, h).");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->plan_cache_hit);
}

}  // namespace
}  // namespace sim
}  // namespace pdms
