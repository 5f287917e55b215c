// Tests for the solver-core features behind the fast attack engine:
// restart schedule, incremental assumption reuse, budget/deadline stop
// causes, phase saving, and learnt-database reduction.
#include <gtest/gtest.h>

#include <vector>

#include "attack/sat.hpp"

namespace stt::sat {
namespace {

// Pigeonhole principle (n+1 pigeons, n holes): resolution-hard UNSAT.
// With `guard` defined, every clause is disabled unless guard is assumed
// true, so the refutation runs under an assumption and the solver stays
// usable (ok) afterwards.
std::vector<std::vector<Var>> add_php(Solver& s, int pigeons, int holes,
                                      const Lit* guard = nullptr) {
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> at_least;
    if (guard) at_least.push_back(~*guard);
    for (int j = 0; j < holes; ++j) at_least.push_back(pos(p[i][j]));
    s.add_clause(at_least);
  }
  for (int j = 0; j < holes; ++j) {
    for (int i1 = 0; i1 < pigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < pigeons; ++i2) {
        if (guard) {
          s.add_ternary(~*guard, neg(p[i1][j]), neg(p[i2][j]));
        } else {
          s.add_binary(neg(p[i1][j]), neg(p[i2][j]));
        }
      }
    }
  }
  return p;
}

TEST(SatSolverCore, LubySequenceValues) {
  const std::int64_t expected[] = {1, 1, 2, 1, 1, 2, 4, 1,
                                   1, 2, 1, 1, 2, 4, 8};
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(luby_sequence(static_cast<std::int64_t>(i)), expected[i])
        << "index " << i;
  }
  EXPECT_EQ(luby_sequence(62), 32);  // tail of the fourth block
}

TEST(SatSolverCore, PigeonholeUnsatWithLearning) {
  Solver s;
  add_php(s, 7, 6);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(s.conflicts(), 0);
  EXPECT_GT(s.learned(), 0);
  EXPECT_GE(s.peak_clauses(), s.live_clauses());
}

TEST(SatSolverCore, ConflictBudgetStopsAndResumes) {
  Solver s;
  add_php(s, 8, 7);
  s.set_conflict_budget(50);
  EXPECT_EQ(s.solve(), Result::kUnknown);
  EXPECT_EQ(s.last_stop(), StopCause::kConflictBudget);
  const std::int64_t after_first = s.conflicts();
  EXPECT_GE(after_first, 50);

  // Resumption: the learnt clauses survive, and an unlimited re-solve
  // finishes the refutation.
  s.set_conflict_budget(-1);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_EQ(s.last_stop(), StopCause::kNone);
  EXPECT_GT(s.conflicts(), after_first);
}

TEST(SatSolverCore, DeadlineStopsHardInstance) {
  Solver s;
  add_php(s, 9, 8);
  s.set_deadline(0.0);  // already expired; trips at the first check
  EXPECT_EQ(s.solve(), Result::kUnknown);
  EXPECT_EQ(s.last_stop(), StopCause::kDeadline);

  // Disabling the deadline lets the same call run to completion.
  s.set_deadline(-1.0);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolverCore, ExpiredDeadlineStillDecidesEasyFormula) {
  // The deadline is only polled between conflicts, so a formula decided by
  // propagation alone is immune to it — solve() never returns kUnknown
  // without at least one conflict batch.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(pos(a), pos(b));
  s.add_unit(neg(a));
  s.set_deadline(0.0);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(b));
}

TEST(SatSolverCore, AssumptionReuseAcrossIncrementalCalls) {
  Solver s;
  const Var e = s.new_var();
  const Lit guard = pos(e);
  add_php(s, 5, 4, &guard);

  // Under the guard the instance is UNSAT; without it, SAT — repeatedly,
  // in both orders, on one solver.
  for (int round = 0; round < 3; ++round) {
    const Lit assume_on[] = {guard};
    EXPECT_EQ(s.solve(assume_on), Result::kUnsat) << "round " << round;
    const Lit assume_off[] = {~guard};
    EXPECT_EQ(s.solve(assume_off), Result::kSat) << "round " << round;
    EXPECT_FALSE(s.value(e));
  }
  // Clauses added between calls are honored by later assumptions.
  const Var x = s.new_var();
  s.add_binary(neg(e), pos(x));  // e -> x
  const Lit assume_x[] = {neg(x)};
  EXPECT_EQ(s.solve(assume_x), Result::kSat);
  EXPECT_FALSE(s.value(e));
}

TEST(SatSolverCore, ModelConsistentAfterReduceDb) {
  // A guarded PHP refutation long enough to halve the learnt database
  // under the default restart schedule; then an unguarded n-into-n
  // matching is added to the same solver and its model checked.
  Solver s;
  const Var e = s.new_var();
  const Lit guard = pos(e);
  add_php(s, 9, 8, &guard);

  const Lit assume_on[] = {guard};
  ASSERT_EQ(s.solve(assume_on), Result::kUnsat);
  EXPECT_GE(s.db_reductions(), 1);

  const auto holes = add_php(s, 6, 6);
  const Lit assume_off[] = {~guard};
  ASSERT_EQ(s.solve(assume_off), Result::kSat);
  EXPECT_FALSE(s.value(e));
  // The model must be a real pigeon->hole matching.
  for (int i = 0; i < 6; ++i) {
    int assigned = 0;
    for (int j = 0; j < 6; ++j) assigned += s.value(holes[i][j]) ? 1 : 0;
    EXPECT_GE(assigned, 1) << "pigeon " << i;
  }
  for (int j = 0; j < 6; ++j) {
    int occupancy = 0;
    for (int i = 0; i < 6; ++i) occupancy += s.value(holes[i][j]) ? 1 : 0;
    EXPECT_LE(occupancy, 1) << "hole " << j;
  }
}

TEST(SatSolverCore, PhaseSavingAndSetPhase) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(pos(a), pos(b));  // both free; decisions follow the phase
  s.set_phase(a, true);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(a));

  // The model's phases are saved: an unconstrained re-solve repeats it.
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(a));

  s.set_phase(a, false);
  const Lit keep_b[] = {pos(b)};  // keep the clause satisfied regardless
  ASSERT_EQ(s.solve(keep_b), Result::kSat);
  EXPECT_FALSE(s.value(a));
}

TEST(SatSolverCore, StatisticsTrackClauseLifecycle) {
  Solver s;
  const std::int64_t before = s.clauses_added();
  add_php(s, 5, 4);
  const std::int64_t submitted = s.clauses_added() - before;
  EXPECT_EQ(submitted, 5 + 4 * (5 * 4) / 2);  // at-least + at-most clauses
  EXPECT_GT(s.live_clauses(), 0);
  ASSERT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GE(s.peak_clauses(), s.live_clauses());
  EXPECT_GT(s.propagations(), 0);
}

}  // namespace
}  // namespace stt::sat
