#include "vdp/rules.h"

#include <gtest/gtest.h>

#include <map>

#include "delta/delta_algebra.h"
#include "relational/operators.h"
#include "testing/util.h"
#include "vdp/builder.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::MakeSchema;
using testing::Pred;

/// NodeStateFn over a plain map of relations.
NodeStateFn StatesOf(const std::map<std::string, Relation>& states) {
  return [&states](const std::string& node, const std::vector<std::string>&)
             -> Result<std::shared_ptr<const Relation>> {
    auto it = states.find(node);
    if (it == states.end()) return Status::NotFound("no state for " + node);
    return std::shared_ptr<const Relation>(std::shared_ptr<void>(),
                                           &it->second);
  };
}

/// Sequential-discipline simulation of one IUP step at a single parent:
/// fires each child's delta in the given order, applying each child's delta
/// to the shared state map right after its firing; returns the smashed
/// parent delta.
Result<Delta> FireAll(const VdpNode& parent,
                      std::map<std::string, Relation>* states,
                      std::vector<std::pair<std::string, Delta>> deltas) {
  Delta total(parent.schema);
  for (auto& [child, delta] : deltas) {
    SQ_ASSIGN_OR_RETURN(
        Delta part, FireEdgeRules(parent, child, delta, StatesOf(*states)));
    SQ_RETURN_IF_ERROR(total.SmashInPlace(part));
    SQ_RETURN_IF_ERROR(ApplyDelta(&(*states)[child], delta));
  }
  return total;
}

/// Fully recomputes the parent from the (current) child states.
Result<Relation> Recompute(const VdpNode& parent,
                           const std::map<std::string, Relation>& states) {
  return parent.def->Evaluate(StatesOf(states));
}

class SpjRulesTest : public ::testing::Test {
 protected:
  // T = π_{a,c} (R'(a,b) ⋈_{b=c} S'(c,d)) — two bag children.
  void SetUp() override {
    VdpBuilder b;
    b.Leaf("R", "DB1", "R", "R(a, b)");
    b.Leaf("S", "DB2", "S", "S(c, d)");
    b.LeafParent("R'", "R", {"a", "b"});
    b.LeafParent("S'", "S", {"c", "d"});
    b.Spj("T", {{"R'", {"a", "b"}, ""}, {"S'", {"c", "d"}, ""}}, {"b = c"},
          {"a", "c"}, "", true);
    auto vdp = b.Build();
    ASSERT_TRUE(vdp.ok()) << vdp.status().ToString();
    vdp_ = std::move(vdp).value();
    states_["R'"] = Relation(MakeSchema("X(a, b)"), Semantics::kBag);
    states_["S'"] = Relation(MakeSchema("X(c, d)"), Semantics::kBag);
  }

  Delta MakeDelta(const std::string& schema,
                  std::vector<std::pair<Tuple, int64_t>> atoms) {
    Delta d(MakeSchema(schema));
    for (auto& [t, c] : atoms) EXPECT_TRUE(d.Add(t, c).ok());
    return d;
  }

  Vdp vdp_;
  std::map<std::string, Relation> states_;
};

TEST_F(SpjRulesTest, SingleChildInsertPropagates) {
  SQ_ASSERT_OK(states_["S'"].Insert(Tuple({7, 70})));
  const VdpNode* t = vdp_.Find("T");
  Delta dr = MakeDelta("R(a, b)", {{Tuple({1, 7}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dt,
                          FireEdgeRules(*t, "R'", dr, StatesOf(states_)));
  EXPECT_EQ(dt.CountOf(Tuple({1, 7})), 1);
  EXPECT_EQ(dt.AtomCount(), 1u);
}

TEST_F(SpjRulesTest, NoMatchNoPropagation) {
  SQ_ASSERT_OK(states_["S'"].Insert(Tuple({9, 90})));
  const VdpNode* t = vdp_.Find("T");
  Delta dr = MakeDelta("R(a, b)", {{Tuple({1, 7}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dt,
                          FireEdgeRules(*t, "R'", dr, StatesOf(states_)));
  EXPECT_TRUE(dt.Empty());
}

TEST_F(SpjRulesTest, Example61BothChildrenChange) {
  // The Example 6.1 trap: ΔR' ⋈ ΔS' must be counted exactly once.
  const VdpNode* t = vdp_.Find("T");
  // Old states empty; both children gain a matching tuple.
  Delta dr = MakeDelta("R(a, b)", {{Tuple({1, 7}), 1}});
  Delta ds = MakeDelta("S(c, d)", {{Tuple({7, 70}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(
      Delta dt, FireAll(*t, &states_, {{"R'", dr}, {"S'", ds}}));
  // Exactly one (1, 7) appears.
  EXPECT_EQ(dt.CountOf(Tuple({1, 7})), 1);
  // And the incremental result matches recomputation.
  SQ_ASSERT_OK_AND_ASSIGN(Relation expect, Recompute(*t, states_));
  Relation tr(t->schema, Semantics::kBag);
  SQ_ASSERT_OK(ApplyDelta(&tr, dt));
  EXPECT_TRUE(tr.EqualContents(expect));
}

TEST_F(SpjRulesTest, Example61ReverseOrder) {
  const VdpNode* t = vdp_.Find("T");
  Delta dr = MakeDelta("R(a, b)", {{Tuple({1, 7}), 1}});
  Delta ds = MakeDelta("S(c, d)", {{Tuple({7, 70}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(
      Delta dt, FireAll(*t, &states_, {{"S'", ds}, {"R'", dr}}));
  EXPECT_EQ(dt.CountOf(Tuple({1, 7})), 1);
}

TEST_F(SpjRulesTest, MixedInsertDeleteAcrossChildren) {
  SQ_ASSERT_OK(states_["R'"].Insert(Tuple({1, 7})));
  SQ_ASSERT_OK(states_["R'"].Insert(Tuple({2, 8})));
  SQ_ASSERT_OK(states_["S'"].Insert(Tuple({7, 70})));
  SQ_ASSERT_OK(states_["S'"].Insert(Tuple({8, 80})));
  const VdpNode* t = vdp_.Find("T");
  // R' loses (1,7); S' gains (7,71) — net effect on T must match recompute.
  Delta dr = MakeDelta("R(a, b)", {{Tuple({1, 7}), -1}});
  Delta ds = MakeDelta("S(c, d)", {{Tuple({7, 71}), 1}});
  Relation before(t->schema, Semantics::kBag);
  SQ_ASSERT_OK_AND_ASSIGN(Relation b0, Recompute(*t, states_));
  before = b0;
  SQ_ASSERT_OK_AND_ASSIGN(
      Delta dt, FireAll(*t, &states_, {{"R'", dr}, {"S'", ds}}));
  SQ_ASSERT_OK(ApplyDelta(&before, dt));
  SQ_ASSERT_OK_AND_ASSIGN(Relation expect, Recompute(*t, states_));
  EXPECT_TRUE(before.EqualContents(expect));
}

TEST_F(SpjRulesTest, TermSelectionFiltersDelta) {
  // U = π_a(σ_{b=7} R') — term selection must filter the delta.
  VdpBuilder b;
  b.Leaf("R", "DB1", "R", "R(a, b)");
  b.LeafParent("R'", "R", {"a", "b"});
  b.Spj("U", {{"R'", {"a"}, "b = 7"}}, {}, {}, "", true);
  SQ_ASSERT_OK_AND_ASSIGN(Vdp vdp, b.Build());
  const VdpNode* u = vdp.Find("U");
  std::map<std::string, Relation> states;
  states["R'"] = Relation(MakeSchema("X(a, b)"), Semantics::kBag);
  Delta dr = MakeDelta("R(a, b)", {{Tuple({1, 7}), 1}, {Tuple({2, 9}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta du,
                          FireEdgeRules(*u, "R'", dr, StatesOf(states)));
  EXPECT_EQ(du.CountOf(Tuple({1})), 1);
  EXPECT_EQ(du.CountOf(Tuple({2})), 0);
}

TEST_F(SpjRulesTest, ProjectionMergesDeltaCounts) {
  // T's outer projection π_{a,c}: two R' tuples with same a merge.
  SQ_ASSERT_OK(states_["S'"].Insert(Tuple({7, 70})));
  const VdpNode* t = vdp_.Find("T");
  Delta dr = MakeDelta("R(a, b)", {{Tuple({1, 7}), 2}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dt,
                          FireEdgeRules(*t, "R'", dr, StatesOf(states_)));
  EXPECT_EQ(dt.CountOf(Tuple({1, 7})), 2);
}

TEST(SelfJoinRulesTest, SelfJoinCountsOnce) {
  // P = R' ⋈_{b = c2... } R' is impossible without renaming; emulate a
  // self-join via two terms over the SAME child with disjoint projections.
  // Here: P = π_{a}(R'[a,b]) x π_{b}(R'[a,b]) (cross product of two
  // projections of the same child).
  VdpBuilder builder;
  builder.Leaf("R", "DB1", "R", "R(a, b)");
  builder.LeafParent("R'", "R", {"a", "b"});
  builder.Spj("P", {{"R'", {"a"}, ""}, {"R'", {"b"}, ""}}, {""}, {}, "",
              true);
  SQ_ASSERT_OK_AND_ASSIGN(Vdp vdp, builder.Build());
  const VdpNode* p = vdp.Find("P");

  std::map<std::string, Relation> states;
  states["R'"] = Relation(MakeSchema("X(a, b)"), Semantics::kBag);
  SQ_ASSERT_OK(states["R'"].Insert(Tuple({1, 10})));

  // Compute the old P, fire a delta, compare against recompute.
  SQ_ASSERT_OK_AND_ASSIGN(Relation before,
                          p->def->Evaluate(StatesOf(states)));
  Delta dr(MakeSchema("R(a, b)"));
  SQ_ASSERT_OK(dr.AddInsert(Tuple({2, 20})));
  SQ_ASSERT_OK_AND_ASSIGN(Delta dp,
                          FireEdgeRules(*p, "R'", dr, StatesOf(states)));
  SQ_ASSERT_OK(ApplyDelta(&states["R'"], dr));
  SQ_ASSERT_OK_AND_ASSIGN(Relation expect,
                          p->def->Evaluate(StatesOf(states)));
  SQ_ASSERT_OK(ApplyDelta(&before, dp));
  EXPECT_TRUE(before.EqualContents(expect))
      << before.ToString("got") << expect.ToString("want");
}

class DiffRulesTest : public ::testing::Test {
 protected:
  // G = π_x(L') − π_x(M').
  void SetUp() override {
    VdpBuilder b;
    b.Leaf("L", "DB1", "L", "L(x, y)");
    b.Leaf("M", "DB2", "M", "M(x, z)");
    b.LeafParent("L'", "L", {"x", "y"});
    b.LeafParent("M'", "M", {"x", "z"});
    b.Diff("G", {"L'", {"x"}, ""}, {"M'", {"x"}, ""}, true);
    auto vdp = b.Build();
    ASSERT_TRUE(vdp.ok()) << vdp.status().ToString();
    vdp_ = std::move(vdp).value();
    states_["L'"] = Relation(MakeSchema("X(x, y)"), Semantics::kBag);
    states_["M'"] = Relation(MakeSchema("X(x, z)"), Semantics::kBag);
  }

  Delta MakeDelta(const std::string& schema,
                  std::vector<std::pair<Tuple, int64_t>> atoms) {
    Delta d(MakeSchema(schema));
    for (auto& [t, c] : atoms) EXPECT_TRUE(d.Add(t, c).ok());
    return d;
  }

  Relation EvalG() {
    auto r = vdp_.Find("G")->def->Evaluate(StatesOf(states_));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Vdp vdp_;
  std::map<std::string, Relation> states_;
};

TEST_F(DiffRulesTest, InsertIntoLeftNotInRight) {
  const VdpNode* g = vdp_.Find("G");
  Delta dl = MakeDelta("L(x, y)", {{Tuple({1, 10}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dg,
                          FireEdgeRules(*g, "L'", dl, StatesOf(states_)));
  EXPECT_EQ(dg.CountOf(Tuple({1})), 1);
}

TEST_F(DiffRulesTest, InsertIntoLeftSuppressedByRight) {
  SQ_ASSERT_OK(states_["M'"].Insert(Tuple({1, 99})));
  const VdpNode* g = vdp_.Find("G");
  Delta dl = MakeDelta("L(x, y)", {{Tuple({1, 10}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dg,
                          FireEdgeRules(*g, "L'", dl, StatesOf(states_)));
  EXPECT_TRUE(dg.Empty());
}

TEST_F(DiffRulesTest, CorrectedDiff1DeletionRule) {
  // The paper's diff1 says (ΔT)⁻ = (ΔR₁)⁻ ∩ R₂, which is wrong: deleting a
  // tuple from L that IS in M must not delete from G (it was never there),
  // while deleting one NOT in M must. Verify the corrected "− R₂" behavior.
  SQ_ASSERT_OK(states_["L'"].Insert(Tuple({1, 10})));
  SQ_ASSERT_OK(states_["L'"].Insert(Tuple({2, 20})));
  SQ_ASSERT_OK(states_["M'"].Insert(Tuple({2, 99})));
  // G = {1}.
  const VdpNode* g = vdp_.Find("G");
  // Delete both from L.
  Delta dl = MakeDelta("L(x, y)", {{Tuple({1, 10}), -1}, {Tuple({2, 20}), -1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dg,
                          FireEdgeRules(*g, "L'", dl, StatesOf(states_)));
  EXPECT_EQ(dg.CountOf(Tuple({1})), -1);  // was in G, leaves
  EXPECT_EQ(dg.CountOf(Tuple({2})), 0);   // never was in G (paper's rule
                                          // would wrongly delete it)
}

TEST_F(DiffRulesTest, Diff2InsertRemovesFromG) {
  SQ_ASSERT_OK(states_["L'"].Insert(Tuple({1, 10})));
  const VdpNode* g = vdp_.Find("G");
  Delta dm = MakeDelta("M(x, z)", {{Tuple({1, 99}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dg,
                          FireEdgeRules(*g, "M'", dm, StatesOf(states_)));
  EXPECT_EQ(dg.CountOf(Tuple({1})), -1);
}

TEST_F(DiffRulesTest, Diff2DeleteRestoresToG) {
  SQ_ASSERT_OK(states_["L'"].Insert(Tuple({1, 10})));
  SQ_ASSERT_OK(states_["M'"].Insert(Tuple({1, 99})));
  const VdpNode* g = vdp_.Find("G");
  Delta dm = MakeDelta("M(x, z)", {{Tuple({1, 99}), -1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dg,
                          FireEdgeRules(*g, "M'", dm, StatesOf(states_)));
  EXPECT_EQ(dg.CountOf(Tuple({1})), 1);
}

TEST_F(DiffRulesTest, Diff2IrrelevantWhenNotInLeft) {
  const VdpNode* g = vdp_.Find("G");
  Delta dm = MakeDelta("M(x, z)", {{Tuple({5, 50}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dg,
                          FireEdgeRules(*g, "M'", dm, StatesOf(states_)));
  EXPECT_TRUE(dg.Empty());
}

TEST_F(DiffRulesTest, BagProjectionPresence) {
  // Two L' tuples project to the same x; deleting ONE must not remove x
  // from G (presence only changes when the projected count hits zero).
  SQ_ASSERT_OK(states_["L'"].Insert(Tuple({1, 10})));
  SQ_ASSERT_OK(states_["L'"].Insert(Tuple({1, 20})));
  const VdpNode* g = vdp_.Find("G");
  Delta dl1 = MakeDelta("L(x, y)", {{Tuple({1, 10}), -1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dg1,
                          FireEdgeRules(*g, "L'", dl1, StatesOf(states_)));
  EXPECT_TRUE(dg1.Empty());
  SQ_ASSERT_OK(ApplyDelta(&states_["L'"], dl1));
  // Deleting the second copy drops x=1 from G.
  Delta dl2 = MakeDelta("L(x, y)", {{Tuple({1, 20}), -1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta dg2,
                          FireEdgeRules(*g, "L'", dl2, StatesOf(states_)));
  EXPECT_EQ(dg2.CountOf(Tuple({1})), -1);
}

TEST_F(DiffRulesTest, BothSidesChangeSequential) {
  // Insert x=1 into L and into M in the same batch: net zero in G.
  const VdpNode* g = vdp_.Find("G");
  Relation g_before = EvalG();
  Delta dl = MakeDelta("L(x, y)", {{Tuple({1, 10}), 1}});
  Delta dm = MakeDelta("M(x, z)", {{Tuple({1, 99}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(
      Delta dg, FireAll(*g, &states_, {{"L'", dl}, {"M'", dm}}));
  SQ_ASSERT_OK(ApplyDelta(&g_before, dg));
  EXPECT_TRUE(g_before.EqualContents(EvalG()));
  EXPECT_TRUE(EvalG().Empty() || !EvalG().Contains(Tuple({1})));
}

TEST_F(DiffRulesTest, BothSidesDeleteSequentialReversed) {
  SQ_ASSERT_OK(states_["L'"].Insert(Tuple({1, 10})));
  SQ_ASSERT_OK(states_["M'"].Insert(Tuple({1, 99})));
  const VdpNode* g = vdp_.Find("G");
  Relation g_before = EvalG();  // empty: 1 is suppressed
  Delta dl = MakeDelta("L(x, y)", {{Tuple({1, 10}), -1}});
  Delta dm = MakeDelta("M(x, z)", {{Tuple({1, 99}), -1}});
  // Process M' first, then L' (the VDP's topological order can be either).
  SQ_ASSERT_OK_AND_ASSIGN(
      Delta dg, FireAll(*g, &states_, {{"M'", dm}, {"L'", dl}}));
  SQ_ASSERT_OK(ApplyDelta(&g_before, dg));
  EXPECT_TRUE(g_before.EqualContents(EvalG()));
  EXPECT_TRUE(EvalG().Empty());
}

TEST(UnionRulesTest, UnionAddsAndCancels) {
  VdpBuilder b;
  b.Leaf("L", "DB1", "L", "L(x)");
  b.Leaf("M", "DB2", "M", "M(x)");
  b.LeafParent("L'", "L", {"x"});
  b.LeafParent("M'", "M", {"x"});
  b.Union("U", {"L'", {"x"}, ""}, {"M'", {"x"}, ""}, true);
  SQ_ASSERT_OK_AND_ASSIGN(Vdp vdp, b.Build());
  const VdpNode* u = vdp.Find("U");
  std::map<std::string, Relation> states;
  states["L'"] = Relation(MakeSchema("X(x)"), Semantics::kBag);
  states["M'"] = Relation(MakeSchema("X(x)"), Semantics::kBag);
  Delta dl(MakeSchema("L(x)"));
  SQ_ASSERT_OK(dl.AddInsert(Tuple({1})));
  SQ_ASSERT_OK_AND_ASSIGN(Delta du,
                          FireEdgeRules(*u, "L'", dl, StatesOf(states)));
  EXPECT_EQ(du.CountOf(Tuple({1})), 1);
  // Union term selections filter.
  VdpBuilder b2;
  b2.Leaf("L", "DB1", "L", "L(x)");
  b2.LeafParent("L'", "L", {"x"});
  b2.LeafParent("L''", "L", {"x"});
  b2.Union("U", {"L'", {"x"}, "x < 5"}, {"L''", {"x"}, "x >= 5"}, true);
  SQ_ASSERT_OK_AND_ASSIGN(Vdp vdp2, b2.Build());
  const VdpNode* u2 = vdp2.Find("U");
  Delta big(MakeSchema("L(x)"));
  SQ_ASSERT_OK(big.AddInsert(Tuple({9})));
  SQ_ASSERT_OK_AND_ASSIGN(Delta du2,
                          FireEdgeRules(*u2, "L'", big, StatesOf(states)));
  EXPECT_TRUE(du2.Empty());  // x=9 fails the L' term's filter
}

// The index advisor follows the VAP's key-based choice: Example 2.3's
// T[r1 m, r3 v, s1 m, s2 v] fetches r3 from R' by r1 and s2 from S' by s1.
// Each child gets its key index where its repository can serve the probe,
// and T gets one on the first supplier's key, r1, for selecting its own
// part by it; no index on s1, which no query selects T by.
TEST(AdviseIndexesTest, KeysEachChildOfTheKeyBasedChoice) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok()) << vdp.status().ToString();
  ASSERT_EQ(KeyBasedSupplier(*vdp, *vdp->Find("T"), {"r1", "s1"}, "r3"),
            &vdp->Find("T")->def->terms()[0]);
  ASSERT_EQ(KeyBasedSupplier(*vdp, *vdp->Find("T"), {"r1", "s1"}, "s2"),
            &vdp->Find("T")->def->terms()[1]);
  // No supplier without the child's key materialized in T.
  EXPECT_EQ(KeyBasedSupplier(*vdp, *vdp->Find("T"), {"s1"}, "r3"), nullptr);

  // R' and S' materialized: both children are probed by their keys (S's
  // key s1 is also its join index).
  Annotation hybrid;
  SQ_ASSERT_OK(hybrid.SetFromSpec(*vdp, "T", "r1 m, r3 v, s1 m, s2 v"));
  EXPECT_EQ(AdviseIndexes(*vdp, hybrid),
            (IndexSpecs{{"R'", {{"r2"}, {"r1"}}},
                        {"S'", {{"s1"}}},
                        {"T", {{"r1"}}}}));

  // Example 2.3 itself: R' and S' virtual, so only T's own part is indexed;
  // the children are polled, not probed.
  EXPECT_EQ(AdviseIndexes(*vdp, AnnotationExample23(*vdp)),
            (IndexSpecs{{"T", {{"r1"}}}}));

  // S' hybrid with s2 virtual: its repository cannot serve s2, so no S'
  // key probe is advised beyond the join index its repository serves.
  Annotation s_hybrid = hybrid;
  SQ_ASSERT_OK(s_hybrid.SetFromSpec(*vdp, "S'", "s1 m, s2 v"));
  EXPECT_EQ(AdviseIndexes(*vdp, s_hybrid),
            (IndexSpecs{{"R'", {{"r2"}, {"r1"}}},
                        {"T", {{"r1"}}}}));
}

}  // namespace
}  // namespace squirrel
