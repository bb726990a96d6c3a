// Unit tests for the vectorized query engine (src/pdms/qp/): columnar
// storage round-trips, incremental statistics, scan-filter pushdown, the
// cost-based planner's shapes, deterministic execution, and physical-plan
// caching with statistics-fingerprint invalidation
// (docs/query_planning.md).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pdms/core/pdms.h"
#include "pdms/eval/evaluator.h"
#include "pdms/lang/parser.h"
#include "pdms/obs/metrics.h"
#include "pdms/qp/column_store.h"
#include "pdms/qp/engine.h"
#include "pdms/qp/planner.h"
#include "pdms/qp/vectorized.h"

namespace pdms {
namespace qp {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto r = ParseRuleText(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

Database MakeEdgeDb() {
  Database db;
  db.Insert("edge", {Value::Int(1), Value::Int(2)});
  db.Insert("edge", {Value::Int(2), Value::Int(3)});
  db.Insert("edge", {Value::Int(3), Value::Int(4)});
  db.Insert("edge", {Value::Int(2), Value::Int(5)});
  return db;
}

// --- Columnar storage ---

TEST(StringDict, InternsInFirstUseOrderAndFindsWithoutInterning) {
  StringDict dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("a"), 0u);  // stable
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Find("b").value(), 1u);
  EXPECT_FALSE(dict.Find("never").has_value());
  EXPECT_EQ(dict.At(0), "a");
}

TEST(ColumnStore, RowColumnarRowRoundTripPreservesEverything) {
  Relation rel("r", 3);
  rel.Insert({Value::Int(7), Value::String("x"), Value::Null(3)});
  rel.Insert({Value::Int(-2), Value::String("y"), Value::Int(0)});
  rel.Insert({Value::Null(1), Value::String("x"), Value::String("z")});

  ColumnarCatalog catalog;
  const ColumnarRelation* col = catalog.Ensure(rel);
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->arity, 3u);
  EXPECT_EQ(col->rows, 3u);

  Relation back = ToRowRelation("r", *col, *catalog.dict());
  ASSERT_EQ(back.size(), rel.size());
  // Row order is preserved exactly, not just as a set.
  EXPECT_EQ(back.tuples(), rel.tuples());
}

TEST(ColumnStore, CodesAgreeWithValueEquality) {
  ColumnarCatalog catalog;
  Code a = catalog.Encode(Value::String("alpha"));
  Code b = catalog.Encode(Value::String("beta"));
  Code a2 = catalog.Encode(Value::String("alpha"));
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_NE(catalog.Encode(Value::Int(0)), catalog.Encode(Value::Null(0)));
  EXPECT_EQ(catalog.Decode(a), Value::String("alpha"));
  // EncodeExisting never interns: unseen strings encode to nothing.
  EXPECT_FALSE(catalog.EncodeExisting(Value::String("unseen")).has_value());
  EXPECT_TRUE(catalog.EncodeExisting(Value::String("alpha")).has_value());
}

TEST(ColumnStore, StatsTrackRowsAndPerColumnDistincts) {
  Database db = MakeEdgeDb();
  ColumnarCatalog catalog;
  catalog.Ensure(*db.Find("edge"));
  const TableStats* stats = catalog.stats("edge");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->rows, 4u);
  ASSERT_EQ(stats->distinct.size(), 2u);
  EXPECT_EQ(stats->distinct[0], 3u);  // {1, 2, 3}
  EXPECT_EQ(stats->distinct[1], 4u);  // {2, 3, 4, 5}
  EXPECT_DOUBLE_EQ(stats->SelectEq(0), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats->SelectEq(1), 1.0);
}

TEST(ColumnStore, AppendOnlyInsertConvertsIncrementally) {
  Database db = MakeEdgeDb();
  obs::MetricsRegistry metrics;
  ColumnarCatalog catalog;
  catalog.Ensure(*db.Find("edge"), &metrics);
  EXPECT_EQ(metrics.counter("qp.stats_rows_appended"), 4u);
  const uint64_t rebuilds = metrics.counter("qp.stats_rebuilds");

  db.Insert("edge", {Value::Int(5), Value::Int(6)});
  catalog.Ensure(*db.Find("edge"), &metrics);
  // Only the new suffix converted; no rebuild.
  EXPECT_EQ(metrics.counter("qp.stats_rows_appended"), 5u);
  EXPECT_EQ(metrics.counter("qp.stats_rebuilds"), rebuilds);
  EXPECT_EQ(catalog.stats("edge")->rows, 5u);
  EXPECT_EQ(catalog.stats("edge")->distinct[0], 4u);

  // A destructive mutation (canonical sort) forces a full rebuild.
  db.FindMutable("edge")->SortCanonical();
  catalog.Ensure(*db.Find("edge"), &metrics);
  EXPECT_EQ(metrics.counter("qp.stats_rebuilds"), rebuilds + 1);
  EXPECT_EQ(catalog.stats("edge")->rows, 5u);
}

TEST(ColumnStore, StatsFingerprintMovesWithTheData) {
  Database db = MakeEdgeDb();
  ColumnarCatalog catalog;
  catalog.Ensure(*db.Find("edge"));
  const uint64_t before = catalog.StatsFingerprint({"edge"});
  db.Insert("edge", {Value::Int(9), Value::Int(9)});
  catalog.Ensure(*db.Find("edge"));
  EXPECT_NE(catalog.StatsFingerprint({"edge"}), before);
  // Unensured relations contribute a sentinel, not a crash.
  (void)catalog.StatsFingerprint({"missing"});
}

TEST(ColumnStore, IncrementalInsertsMatchFromScratchEnsure) {
  // Facts appended one at a time through the facade convert incrementally
  // into its engine's catalog; the distinct counts (and so the stats
  // fingerprint every cached plan embeds) must equal a one-shot Ensure.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation R(x, y, z); }
    stored r(x, y, z) <= A:R(x, y, z).
    fact r(1, "a", 0).
  )").ok());
  obs::MetricsRegistry metrics;
  pdms.set_metrics(&metrics);
  for (int64_t i = 0; i < 300; ++i) {
    Tuple t = {Value::Int(i % 37), Value::String("s" + std::to_string(i % 11)),
               Value::Int(i * 7 % 101)};
    ASSERT_TRUE(pdms.Insert("r", std::move(t)).ok());
  }
  // The first insert converted the loaded fact plus itself; every later
  // one appended a single row.
  EXPECT_EQ(metrics.counter("qp.stats_rebuilds"), 1u);
  const Relation* rel = pdms.database().Find("r");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(metrics.counter("qp.stats_rows_appended"), rel->size());

  const ColumnarCatalog& incremental = *pdms.engine()->catalog();
  ColumnarCatalog scratch;
  scratch.Ensure(*rel);
  ASSERT_NE(incremental.stats("r"), nullptr);
  EXPECT_EQ(incremental.stats("r")->rows, scratch.stats("r")->rows);
  EXPECT_EQ(incremental.stats("r")->distinct, scratch.stats("r")->distinct);
  EXPECT_EQ(scratch.stats("r")->distinct,
            (std::vector<size_t>{37, 12, 101}));  // "a" joins s0..s10
  EXPECT_EQ(incremental.StatsFingerprint({"r"}),
            scratch.StatsFingerprint({"r"}));
}

TEST(FlatHashSet, ZeroKeyIsTrackedApartFromTheEmptySlotSentinel) {
  FlatHashSet set;
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0));
  // Grow through several capacities; 0 and every key survive rehashing.
  for (uint64_t k = 1; k <= 1000; ++k) {
    EXPECT_TRUE(set.Insert(k * 0x9e3779b97f4a7c15ULL));
  }
  EXPECT_FALSE(set.Insert(0));
  for (uint64_t k = 1; k <= 1000; ++k) {
    EXPECT_FALSE(set.Insert(k * 0x9e3779b97f4a7c15ULL));
  }
  EXPECT_TRUE(set.Insert(1001 * 0x9e3779b97f4a7c15ULL));
}

TEST(ColumnStore, ValueWhoseCodeHashesToZeroIsCounted) {
  // CodeHash's finalizer maps 0 to 0, so this integer's code hashes to
  // exactly the flat set's empty-slot value.
  const uint64_t kind = static_cast<uint64_t>(Value::Kind::kInt);
  const int64_t payload =
      static_cast<int64_t>(0 - 0x9e3779b97f4a7c15ULL - (kind << 56));
  ColumnarCatalog catalog;
  ASSERT_EQ(CodeHash(catalog.Encode(Value::Int(payload))), 0u);

  const Value zero_hash = Value::Int(payload);
  Relation rel("r", 2);
  rel.Insert({zero_hash, Value::Int(1)});
  rel.Insert({zero_hash, Value::Int(2)});
  rel.Insert({Value::Int(1), Value::Int(3)});
  catalog.Ensure(rel);
  EXPECT_EQ(catalog.stats("r")->distinct[0], 2u);  // counted once
  // Incremental append: the zero-hash code is recognised as already seen.
  rel.Insert({zero_hash, Value::Int(4)});
  catalog.Ensure(rel);
  EXPECT_EQ(catalog.stats("r")->distinct, (std::vector<size_t>{2, 4}));
}

TEST(ColumnStore, JoinTableCacheDropsOnRowChange) {
  Database db = MakeEdgeDb();
  ColumnarCatalog catalog;
  const ColumnarRelation* data = catalog.Ensure(*db.Find("edge"));
  PlannedScan scan;
  scan.relation = "edge";
  scan.arity = 2;
  scan.signature = "k:0";
  JoinTable table = BuildJoinTable(scan, {0}, *data, catalog);
  catalog.StoreJoinTable("edge", scan.signature, std::move(table));
  EXPECT_NE(catalog.FindJoinTable("edge", scan.signature), nullptr);
  EXPECT_EQ(catalog.FindJoinTable("edge", "k:1"), nullptr);

  db.Insert("edge", {Value::Int(8), Value::Int(8)});
  catalog.Ensure(*db.Find("edge"));
  EXPECT_EQ(catalog.FindJoinTable("edge", scan.signature), nullptr);
}

// --- Scan filters ---

TEST(ScanFilter, ConstantAndDuplicateEqualityPushdown) {
  Database db;
  db.Insert("p", {Value::Int(1), Value::Int(1)});
  db.Insert("p", {Value::Int(1), Value::Int(2)});
  db.Insert("p", {Value::Int(2), Value::Int(2)});
  ColumnarCatalog catalog;
  const ColumnarRelation* data = catalog.Ensure(*db.Find("p"));

  PlannedScan const_scan;
  const_scan.relation = "p";
  const_scan.arity = 2;
  const_scan.const_eq = {{0, Value::Int(1)}};
  EXPECT_EQ(RunScanFilter(const_scan, *data, catalog),
            (std::vector<uint32_t>{0, 1}));

  PlannedScan dup_scan;
  dup_scan.relation = "p";
  dup_scan.arity = 2;
  dup_scan.dup_eq = {{1, 0}};  // p(x, x)
  EXPECT_EQ(RunScanFilter(dup_scan, *data, catalog),
            (std::vector<uint32_t>{0, 2}));

  // A string constant the data never mentions can match nothing.
  PlannedScan unseen;
  unseen.relation = "p";
  unseen.arity = 2;
  unseen.const_eq = {{0, Value::String("ghost")}};
  EXPECT_TRUE(RunScanFilter(unseen, *data, catalog).empty());
}

// --- Planner shapes ---

TEST(Planner, ChainJoinStartsFromTheSmallerRelationAndKeysCorrectly) {
  Database db = MakeEdgeDb();
  // small(y) has 1 row; edge has 4. The planner must scan `small` first
  // and hash-join edge on the shared variable.
  db.Insert("small", {Value::Int(2)});
  ColumnarCatalog catalog;
  catalog.Ensure(*db.Find("edge"));
  catalog.Ensure(*db.Find("small"));

  auto plan = PlanDisjunct(Q("q(y, z) :- edge(y, z), small(y)."), db, catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_EQ(plan->steps[0].scan.relation, "small");
  EXPECT_EQ(plan->steps[1].scan.relation, "edge");
  ASSERT_EQ(plan->steps[1].key_cols.size(), 1u);
  EXPECT_EQ(plan->steps[1].key_cols[0], 0u);  // edge column 0 joins y
}

TEST(Planner, ConstantsBecomePushedFiltersAndShrinkEstimates) {
  Database db = MakeEdgeDb();
  ColumnarCatalog catalog;
  catalog.Ensure(*db.Find("edge"));
  auto plan = PlanDisjunct(Q("q(y) :- edge(2, y)."), db, catalog);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 1u);
  ASSERT_EQ(plan->steps[0].scan.const_eq.size(), 1u);
  EXPECT_EQ(plan->steps[0].scan.const_eq[0].first, 0u);
  EXPECT_LT(plan->steps[0].scan.est_rows, 4.0);
}

TEST(Planner, GroundDisjunctMatchesLegacyAndUnsafeIsRejected) {
  // An empty body executes from the unit intermediate: one row when its
  // ground comparisons hold, none when they fail — the legacy answer.
  Database db;
  for (bool holds : {true, false}) {
    SCOPED_TRACE(holds ? "true comparison" : "false comparison");
    Comparison cmp{Term::Constant(Value::Int(1)), CmpOp::kLt,
                   Term::Constant(Value::Int(holds ? 2 : 0))};
    ConjunctiveQuery ground(Atom("q", {Term::Constant(Value::Int(1))}), {},
                            {cmp});
    auto want = EvaluateCQ(ground, db);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(want->size(), holds ? 1u : 0u);
    Engine engine;
    auto got = engine.EvaluateDisjunct(ground, db);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want->tuples());
  }
  ColumnarCatalog catalog;
  EXPECT_FALSE(PlanDisjunct(Q("q(w) :- edge(x, y)."), db, catalog).ok());
}

TEST(Planner, MissingRelationEstimatesToZeroRows) {
  Database db = MakeEdgeDb();
  ColumnarCatalog catalog;
  catalog.Ensure(*db.Find("edge"));
  auto plan = PlanDisjunct(Q("q(x) :- nothere(x, y)."), db, catalog);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->steps[0].scan.est_rows, 0.0);
}

// --- Execution vs the legacy evaluator ---

Relation Sorted(Relation rel) {
  rel.SortCanonical();
  return rel;
}

void ExpectSameAnswers(const ConjunctiveQuery& cq, const Database& db) {
  ColumnarCatalog catalog;
  for (const Atom& a : cq.body()) {
    const Relation* rel = db.Find(a.predicate());
    if (rel != nullptr) catalog.Ensure(*rel);
  }
  auto plan = PlanDisjunct(cq, db, catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto got = ExecuteDisjunct(*plan, db, catalog, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = EvaluateCQ(cq, db);
  ASSERT_TRUE(want.ok());

  Relation got_rel(cq.head().predicate(), cq.head().arity());
  for (const Tuple& t : *got) got_rel.Insert(t);
  EXPECT_EQ(Sorted(std::move(got_rel)).tuples(), Sorted(*want).tuples());
}

TEST(Vectorized, MatchesLegacyOnRepresentativeShapes) {
  Database db = MakeEdgeDb();
  db.Insert("label", {Value::Int(2), Value::String("mid")});
  db.Insert("label", {Value::Int(3), Value::String("late")});
  ExpectSameAnswers(Q("q(x, y) :- edge(x, y)."), db);
  ExpectSameAnswers(Q("q(x, z) :- edge(x, y), edge(y, z)."), db);
  ExpectSameAnswers(Q("q(y) :- edge(2, y)."), db);
  ExpectSameAnswers(Q("q(x, n) :- edge(x, y), label(y, n)."), db);
  ExpectSameAnswers(Q("q(x, y) :- edge(x, y), x < y."), db);
  ExpectSameAnswers(Q("q(x, y) :- edge(x, y), y > 3."), db);
  ExpectSameAnswers(Q("q(x, w) :- edge(x, y), edge(y, z), edge(z, w)."), db);
  ExpectSameAnswers(Q("q(x, \"tag\") :- edge(x, 2)."), db);
  // Cross product (no shared variables).
  ExpectSameAnswers(Q("q(a, b) :- edge(a, 2), label(b, \"mid\")."), db);
}

TEST(Vectorized, ExecutionIsDeterministicAcrossRepeats) {
  Database db = MakeEdgeDb();
  ConjunctiveQuery cq = Q("q(x, z) :- edge(x, y), edge(y, z).");
  ColumnarCatalog catalog;
  catalog.Ensure(*db.Find("edge"));
  auto plan = PlanDisjunct(cq, db, catalog);
  ASSERT_TRUE(plan.ok());
  auto first = ExecuteDisjunct(*plan, db, catalog, nullptr);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = ExecuteDisjunct(*plan, db, catalog, nullptr);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *first);  // identical order, not just set-equal
  }
}

// --- The engine: gating, caching, explain ---

TEST(Engine, DegradedEvaluationMatchesLegacyAnswersAndSkips) {
  Database db = MakeEdgeDb();
  db.Insert("blocked", {Value::Int(1)});
  UnionQuery uq({Q("q(x) :- edge(x, 2)."), Q("q(x) :- blocked(x)."),
                 Q("q(x) :- edge(x, 3).")});
  StoredGate gate = [](const std::string& relation) {
    return relation == "blocked"
               ? Status::Unavailable("gated off")
               : Status::Ok();
  };
  Engine engine;
  auto got = engine.EvaluateUnionDegraded(uq, db, gate);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = EvaluateUnionDegraded(uq, db, gate);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->disjuncts_skipped, want->disjuncts_skipped);
  EXPECT_EQ(got->unavailable_relations, want->unavailable_relations);
  EXPECT_EQ(got->answers.tuples(), Sorted(want->answers).tuples());
}

TEST(Engine, NonUnavailableGateErrorPropagates) {
  Database db = MakeEdgeDb();
  UnionQuery uq({Q("q(x) :- edge(x, 2).")});
  StoredGate gate = [](const std::string&) {
    return Status::Internal("broken gate");
  };
  Engine engine;
  EXPECT_FALSE(engine.EvaluateUnionDegraded(uq, db, gate).ok());
}

TEST(Engine, PhysicalPlanSlotReusesUntilStatsMove) {
  Database db = MakeEdgeDb();
  UnionQuery uq({Q("q(x, z) :- edge(x, y), edge(y, z).")});
  Engine engine;
  PhysicalPlanSlot slot;
  obs::MetricsRegistry metrics;
  auto first =
      engine.EvaluateUnionDegraded(uq, db, nullptr, nullptr, &metrics, &slot);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(metrics.counter("qp.plans"), 1u);

  auto second =
      engine.EvaluateUnionDegraded(uq, db, nullptr, nullptr, &metrics, &slot);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(metrics.counter("qp.plans"), 1u);
  EXPECT_EQ(metrics.counter("qp.plan_reused"), 1u);
  EXPECT_EQ(second->answers.tuples(), first->answers.tuples());

  // New data moves the statistics fingerprint: the slot is replanned.
  db.Insert("edge", {Value::Int(4), Value::Int(6)});
  auto third =
      engine.EvaluateUnionDegraded(uq, db, nullptr, nullptr, &metrics, &slot);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(metrics.counter("qp.plans"), 2u);
  EXPECT_GT(third->answers.size(), first->answers.size());
}

TEST(Engine, ExplainRendersEstimatedAndActualCardinalities) {
  Database db = MakeEdgeDb();
  UnionQuery uq({Q("q(x, z) :- edge(x, y), edge(y, z).")});
  Engine engine;
  auto text = engine.Explain(uq, db);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("disjunct 0"), std::string::npos) << *text;
  EXPECT_NE(text->find("scan edge"), std::string::npos) << *text;
  EXPECT_NE(text->find("hash-join edge"), std::string::npos) << *text;
  EXPECT_NE(text->find("est="), std::string::npos) << *text;
  EXPECT_NE(text->find("actual="), std::string::npos) << *text;
  EXPECT_NE(text->find("project"), std::string::npos) << *text;
}

}  // namespace
}  // namespace qp
}  // namespace pdms
