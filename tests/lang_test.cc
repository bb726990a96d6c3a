// Unit tests for the query-language substrate: terms, atoms, conjunctive
// queries, substitutions/unification, canonicalization, and the parser.

#include <gtest/gtest.h>

#include "pdms/lang/canonical.h"
#include "pdms/lang/homomorphism.h"
#include "pdms/lang/conjunctive_query.h"
#include "pdms/lang/parser.h"
#include "pdms/lang/substitution.h"

namespace pdms {
namespace {

TEST(Term, BasicsAndOrdering) {
  Term x = Term::Var("x");
  Term y = Term::Var("y");
  Term c1 = Term::Int(5);
  Term c2 = Term::String("abc");
  EXPECT_TRUE(x.is_variable());
  EXPECT_FALSE(c1.is_variable());
  EXPECT_EQ(x, Term::Var("x"));
  EXPECT_NE(x, y);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(c1.value().int_value(), 5);
  EXPECT_EQ(c2.value().string_value(), "abc");
  EXPECT_EQ(x.ToString(), "x");
  EXPECT_EQ(c1.ToString(), "5");
  EXPECT_EQ(c2.ToString(), "\"abc\"");
  // Variables order before constants.
  EXPECT_TRUE(x < c1);
  EXPECT_FALSE(c1 < x);
}

TEST(Term, HashDistinguishesKinds) {
  EXPECT_NE(Term::Var("5").Hash(), Term::Int(5).Hash());
  EXPECT_EQ(Term::Var("x").Hash(), Term::Var("x").Hash());
}

TEST(VariableFactory, GeneratesDistinctNames) {
  VariableFactory f("_v");
  Term a = f.Fresh();
  Term b = f.Fresh();
  EXPECT_NE(a, b);
  EXPECT_EQ(f.count(), 2u);
}

TEST(Atom, ToStringAndEquality) {
  Atom a("p", {Term::Var("x"), Term::Int(3)});
  EXPECT_EQ(a.ToString(), "p(x, 3)");
  EXPECT_EQ(a, Atom("p", {Term::Var("x"), Term::Int(3)}));
  EXPECT_NE(a, Atom("q", {Term::Var("x"), Term::Int(3)}));
  EXPECT_NE(a, Atom("p", {Term::Var("y"), Term::Int(3)}));
  EXPECT_EQ(a.arity(), 2u);
}

TEST(CmpOp, FlipAndNegate) {
  EXPECT_EQ(FlipCmpOp(CmpOp::kLt), CmpOp::kGt);
  EXPECT_EQ(FlipCmpOp(CmpOp::kLe), CmpOp::kGe);
  EXPECT_EQ(FlipCmpOp(CmpOp::kEq), CmpOp::kEq);
  EXPECT_EQ(NegateCmpOp(CmpOp::kLt), CmpOp::kGe);
  EXPECT_EQ(NegateCmpOp(CmpOp::kEq), CmpOp::kNe);
  EXPECT_EQ(NegateCmpOp(CmpOp::kNe), CmpOp::kEq);
}

TEST(EvalCmp, WithinAndAcrossKinds) {
  EXPECT_TRUE(EvalCmp(CmpOp::kLt, Value::Int(1), Value::Int(2)));
  EXPECT_FALSE(EvalCmp(CmpOp::kLt, Value::Int(2), Value::Int(2)));
  EXPECT_TRUE(EvalCmp(CmpOp::kLe, Value::Int(2), Value::Int(2)));
  EXPECT_TRUE(
      EvalCmp(CmpOp::kLt, Value::String("a"), Value::String("b")));
  // Cross-kind: only != holds.
  EXPECT_TRUE(EvalCmp(CmpOp::kNe, Value::Int(1), Value::String("1")));
  EXPECT_FALSE(EvalCmp(CmpOp::kEq, Value::Int(1), Value::String("1")));
  EXPECT_FALSE(EvalCmp(CmpOp::kLt, Value::Int(1), Value::String("1")));
  // Labeled nulls: a null equals itself, order is unknown.
  EXPECT_TRUE(EvalCmp(CmpOp::kEq, Value::Null(3), Value::Null(3)));
  EXPECT_FALSE(EvalCmp(CmpOp::kLt, Value::Null(3), Value::Null(3)));
  EXPECT_TRUE(EvalCmp(CmpOp::kNe, Value::Null(3), Value::Null(4)));
}

TEST(ConjunctiveQuery, VariableClassification) {
  auto q = ParseRuleText("q(x, y) :- r(x, z), s(z, y), z < 5.");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->HeadVariables(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(q->ExistentialVariables(), (std::vector<std::string>{"z"}));
  EXPECT_TRUE(q->IsDistinguished("x"));
  EXPECT_FALSE(q->IsDistinguished("z"));
  EXPECT_TRUE(q->CheckSafe().ok());
}

TEST(ConjunctiveQuery, UnsafeHeadVariable) {
  auto q = ParseRuleText("q(x, w) :- r(x, z).");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->CheckSafe().ok());
}

TEST(ConjunctiveQuery, UnsafeComparisonVariable) {
  auto q = ParseRuleText("q(x) :- r(x), w < 5.");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->CheckSafe().ok());
}

TEST(Substitution, ResolveFollowsChains) {
  Substitution s;
  EXPECT_TRUE(s.UnifyTerms(Term::Var("x"), Term::Var("y")));
  EXPECT_TRUE(s.UnifyTerms(Term::Var("y"), Term::Int(7)));
  EXPECT_EQ(s.Resolve(Term::Var("x")), Term::Int(7));
  EXPECT_EQ(s.Resolve(Term::Var("y")), Term::Int(7));
  EXPECT_EQ(s.Resolve(Term::Var("z")), Term::Var("z"));
}

TEST(Substitution, UnifyConflictingConstantsFails) {
  Substitution s;
  EXPECT_TRUE(s.UnifyTerms(Term::Var("x"), Term::Int(1)));
  EXPECT_FALSE(s.UnifyTerms(Term::Var("x"), Term::Int(2)));
  EXPECT_FALSE(s.UnifyTerms(Term::Int(1), Term::String("1")));
}

TEST(Substitution, UnifyAtoms) {
  Substitution s;
  Atom a("p", {Term::Var("x"), Term::Var("x")});
  Atom b("p", {Term::Int(1), Term::Var("y")});
  EXPECT_TRUE(s.UnifyAtoms(a, b));
  EXPECT_EQ(s.Resolve(Term::Var("y")), Term::Int(1));
  // Different predicate or arity never unifies.
  Substitution s2;
  EXPECT_FALSE(s2.UnifyAtoms(Atom("p", {Term::Var("x")}), b));
  EXPECT_FALSE(
      s2.UnifyAtoms(Atom("q", {Term::Var("x"), Term::Var("y")}), b));
}

TEST(Substitution, MergeDetectsConflicts) {
  Substitution s1;
  ASSERT_TRUE(s1.UnifyTerms(Term::Var("x"), Term::Int(1)));
  Substitution s2;
  ASSERT_TRUE(s2.UnifyTerms(Term::Var("x"), Term::Int(2)));
  Substitution merged = s1;
  EXPECT_FALSE(merged.Merge(s2));
  Substitution s3;
  ASSERT_TRUE(s3.UnifyTerms(Term::Var("y"), Term::Int(3)));
  Substitution merged2 = s1;
  EXPECT_TRUE(merged2.Merge(s3));
  EXPECT_EQ(merged2.Resolve(Term::Var("y")), Term::Int(3));
}

TEST(Substitution, ApplyQuery) {
  auto q = ParseRuleText("q(x) :- r(x, y), y < 5.");
  ASSERT_TRUE(q.ok());
  Substitution s;
  ASSERT_TRUE(s.UnifyTerms(Term::Var("y"), Term::Int(3)));
  ConjunctiveQuery applied = s.Apply(*q);
  EXPECT_EQ(applied.ToString(), "q(x) :- r(x, 3), 3 < 5.");
}

TEST(RenameApart, ProducesDisjointVariables) {
  auto q = ParseRuleText("q(x) :- r(x, y).");
  ASSERT_TRUE(q.ok());
  VariableFactory f("_r");
  ConjunctiveQuery renamed = RenameApart(*q, &f);
  for (const std::string& v : renamed.AllVariables()) {
    EXPECT_EQ(v.substr(0, 2), "_r");
  }
  // Structure preserved.
  EXPECT_EQ(renamed.body().size(), 1u);
  EXPECT_EQ(renamed.head().predicate(), "q");
}

TEST(Canonical, QueryKeyModuloRenamingAndOrder) {
  auto q1 = ParseRuleText("q(x) :- r(x, y), s(y).");
  auto q2 = ParseRuleText("q(a) :- s(b), r(a, b).");
  auto q3 = ParseRuleText("q(a) :- s(a), r(a, b).");
  ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok());
  EXPECT_EQ(CanonicalQueryKey(*q1), CanonicalQueryKey(*q2));
  EXPECT_NE(CanonicalQueryKey(*q1), CanonicalQueryKey(*q3));
}

TEST(Canonical, RenamingIsBijectiveIntoOverlappingNamespace) {
  // Regression: CanonicalRename used to rename through a chaining
  // substitution, so renaming v3 -> v1 while v1 -> v2 collapsed distinct
  // variables. Repeated canonicalization rounds (rename-sort-rename) then
  // gave two NON-isomorphic rewritings the same key and the enumerator's
  // dedup silently dropped one — a completeness bug.
  auto q = ParseRuleText("q(v1) :- r(v3, v1), s(v1, v2), t(v3, v0).");
  ASSERT_TRUE(q.ok());
  ConjunctiveQuery renamed = CanonicalRename(*q);
  EXPECT_EQ(renamed.AllVariables().size(), q->AllVariables().size());
  // The two 8-atom rewritings from the original failure (differing only in
  // the direction one chain attaches) must get different keys.
  auto a = ParseRuleText(
      "q(x, z) :- e(f, g), h(g, x), i(x, y), j(y, d1), h(y, w), h(w, d2), "
      "k(w, u), e(u, z).");
  auto b = ParseRuleText(
      "q(x, z) :- e(f, g), h(g, x), i(x, y), j(y, d1), h(e2, y), h(y, w), "
      "k(w, u), e(u, z).");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(EquivalentCQ(*a, *b));
  EXPECT_NE(CanonicalQueryKey(*a), CanonicalQueryKey(*b));
}

TEST(RenameApart, SourceNamesOverlappingFactoryOutput) {
  // A query already using the factory's naming scheme must still rename
  // injectively (simultaneous substitution, no chaining).
  auto q = ParseRuleText("q(_r0) :- p(_r0, _r1), s(_r1, _r2).");
  ASSERT_TRUE(q.ok());
  VariableFactory f("_r");
  ConjunctiveQuery renamed = RenameApart(*q, &f);
  EXPECT_EQ(renamed.AllVariables().size(), 3u);
  // Distinct original variables stay distinct.
  EXPECT_NE(renamed.body()[0].args()[0], renamed.body()[0].args()[1]);
  EXPECT_NE(renamed.body()[0].args()[1], renamed.body()[1].args()[1]);
}

TEST(Parser, QualifiedPredicatesAndConstants) {
  auto q = ParseRuleText(
      "Q(pid) :- 9DC:SkilledPerson(pid, \"Doctor\"), H:Doctor(pid, h), "
      "pid >= 100.");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->body()[0].predicate(), "9DC:SkilledPerson");
  EXPECT_EQ(q->body()[0].args()[1], Term::String("Doctor"));
  EXPECT_EQ(q->comparisons().size(), 1u);
  EXPECT_EQ(q->comparisons()[0].op, CmpOp::kGe);
}

TEST(Parser, AnonymousVariablesAreFresh) {
  auto q = ParseRuleText("q(x) :- r(x, _), s(x, _).");
  ASSERT_TRUE(q.ok());
  const Term& a = q->body()[0].args()[1];
  const Term& b = q->body()[1].args()[1];
  EXPECT_TRUE(a.is_variable());
  EXPECT_TRUE(b.is_variable());
  EXPECT_NE(a, b);
}

TEST(Parser, NegativeNumbersAndComments) {
  auto q = ParseRuleText(
      "q(x) :- r(x, -5).  // trailing comment\n# another comment");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->body()[0].args()[1], Term::Int(-5));
}

TEST(Parser, StringEscapes) {
  auto a = ParseAtomText(R"(p("a\"b"))");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->args()[0], Term::String("a\"b"));
}

TEST(Parser, Errors) {
  EXPECT_FALSE(ParseRuleText("q(x) :- ").ok());
  EXPECT_FALSE(ParseRuleText("q(x) r(x).").ok());
  EXPECT_FALSE(ParseRuleText("q(x :- r(x).").ok());
  EXPECT_FALSE(ParseAtomText("p(\"unterminated)").ok());
  EXPECT_FALSE(ParseAtomText("p(x) trailing").ok());
  EXPECT_FALSE(ParseRuleText("q(x) :- r(x), x ! 3.").ok());
}

TEST(Parser, ErrorsMentionLineNumbers) {
  auto r = ParseRuleText("q(x) :-\n r(x),\n x ! 3.");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
}

TEST(Parser, RoundTripThroughToString) {
  auto q = ParseRuleText("q(x, 3) :- r(x, y), s(y, \"lit\"), x < y.");
  ASSERT_TRUE(q.ok());
  auto q2 = ParseRuleText(q->ToString());
  ASSERT_TRUE(q2.ok()) << q->ToString();
  EXPECT_EQ(*q, *q2);
}

TEST(UnionQuery, ToStringJoinsDisjuncts) {
  auto q1 = ParseRuleText("q(x) :- a(x).");
  auto q2 = ParseRuleText("q(x) :- b(x).");
  ASSERT_TRUE(q1.ok() && q2.ok());
  UnionQuery uq({*q1, *q2});
  EXPECT_NE(uq.ToString().find("UNION"), std::string::npos);
  EXPECT_EQ(uq.size(), 2u);
}

}  // namespace
}  // namespace pdms
