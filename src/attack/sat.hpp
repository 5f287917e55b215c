// A from-scratch CDCL SAT solver (MiniSat-style).
//
// The oracle-guided SAT attack (attack/sat_attack.*) and the equivalence
// checker need incremental SAT over Tseitin-encoded netlists. The solver
// implements the standard toolkit: two-literal watching with blocker
// literals, dedicated binary-clause watch lists, first-UIP conflict
// analysis with recursive learnt-clause minimization, VSIDS decision
// heuristic with exponential decay, phase saving across incremental calls,
// Luby restarts, and learnt-clause database reduction.
// `solve()` accepts assumption literals plus two resource caps — a conflict
// budget and a wall-clock deadline — so attacks can run under a resource
// cap and report "undecided" (with the cause) rather than hanging.
// Decisions are pure VSIDS and the search is deterministic: the same clause
// and call sequence always yields the same trajectory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace stt::sat {

/// Variables are dense 0-based indices created by `Solver::new_var`.
using Var = std::int32_t;

/// A literal packs (var << 1) | negated.
class Lit {
 public:
  Lit() : code_(-2) {}
  Lit(Var v, bool negated) : code_((v << 1) | (negated ? 1 : 0)) {}

  Var var() const { return code_ >> 1; }
  bool negated() const { return code_ & 1; }
  Lit operator~() const { return from_code(code_ ^ 1); }
  bool operator==(const Lit& o) const { return code_ == o.code_; }
  bool operator!=(const Lit& o) const { return code_ != o.code_; }

  std::int32_t code() const { return code_; }
  static Lit from_code(std::int32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }
  static Lit undef() { return {}; }

 private:
  std::int32_t code_;
};

inline Lit pos(Var v) { return Lit(v, false); }
inline Lit neg(Var v) { return Lit(v, true); }

enum class Result { kSat, kUnsat, kUnknown };

/// Why the last solve() returned kUnknown.
enum class StopCause : std::uint8_t { kNone, kConflictBudget, kDeadline };

/// The Luby restart sequence (0-indexed): 1,1,2,1,1,2,4,1,1,2,...
/// Exposed for tests.
std::int64_t luby_sequence(std::int64_t i);

class Solver {
 public:
  Solver();

  Var new_var();
  int num_vars() const { return static_cast<int>(activity_.size()); }

  /// Add a clause over existing variables. Returns false if the formula is
  /// already unsatisfiable at level 0.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits);
  bool add_unit(Lit l) { return add_clause({l}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Solve under optional assumptions. kUnknown when the conflict budget or
  /// the deadline (if set) is exhausted; `last_stop()` tells which.
  Result solve(std::span<const Lit> assumptions = {});

  /// Model access after kSat.
  bool value(Var v) const;

  /// Override the saved phase of a variable (warm-start hint).
  void set_phase(Var v, bool phase) { phase_[v] = phase; }

  /// Limit the number of conflicts for the next solve() calls; <0 disables.
  void set_conflict_budget(std::int64_t budget) { conflict_budget_ = budget; }

  /// Abort solve() (returning kUnknown) once `seconds_from_now` of wall
  /// clock have elapsed. Checked every 256 conflicts, so overshoot is
  /// bounded by one conflict batch; a conflict-free solve is never
  /// interrupted (it terminates quickly by construction). Negative
  /// disables. The deadline persists across solve() calls until reset.
  void set_deadline(double seconds_from_now);

  /// Why the most recent solve() stopped without an answer.
  StopCause last_stop() const { return last_stop_; }

  // Statistics (cumulative).
  std::int64_t conflicts() const { return stats_conflicts_; }
  std::int64_t decisions() const { return stats_decisions_; }
  std::int64_t propagations() const { return stats_propagations_; }
  /// Clauses ever learnt from conflicts (monotone; deletion does not undo).
  std::int64_t learned() const { return stats_learned_; }
  /// Problem clauses submitted through add_clause (before simplification).
  std::int64_t clauses_added() const { return stats_clauses_added_; }
  /// Stored, non-deleted clauses right now (problem + learnt).
  std::int64_t live_clauses() const { return live_clauses_; }
  /// High-water mark of live_clauses().
  std::int64_t peak_clauses() const { return peak_clauses_; }
  /// Times the learnt database was halved.
  std::int64_t db_reductions() const { return stats_db_reductions_; }

 private:
  enum LBool : std::uint8_t { kTrue, kFalse, kUndef };

  struct Clause {
    std::vector<Lit> lits;
    double activity = 0.0;
    bool learnt = false;
    bool deleted = false;
  };

  using ClauseRef = std::int32_t;
  static constexpr ClauseRef kNoClause = -1;

  /// Watcher for clauses of size >= 3: `blocker` is some other literal of
  /// the clause; when it is already true the clause is satisfied and the
  /// watch list entry is skipped without touching the clause memory.
  struct Watch {
    ClauseRef cr;
    Lit blocker;
  };

  /// Watcher for binary clauses: the clause is implicit in the list entry
  /// (the other literal + the backing clause for conflict analysis), so
  /// propagation over binaries never dereferences clause storage and the
  /// entry never migrates between lists.
  struct BinWatch {
    Lit other;
    ClauseRef cr;
  };

  LBool lit_value(Lit l) const {
    const LBool v = assigns_[l.var()];
    if (v == kUndef) return kUndef;
    return (v == kTrue) != l.negated() ? kTrue : kFalse;
  }

  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef confl, std::vector<Lit>& learnt, int& bt_level);
  void backtrack(int level, bool save_phases = true);
  Lit pick_branch();
  void bump_var(Var v);
  void bump_clause(Clause& c);
  void decay_activities();
  void reduce_db();
  void rebuild_watches();
  void attach(ClauseRef cr);
  bool lit_redundant(Lit l, std::uint32_t levels_mask);
  std::uint32_t abstract_level(Var v) const {
    return 1u << (level_[v] & 31);
  }
  bool deadline_expired() const;
  void note_clause_stored();

  // Heap with positions for VSIDS.
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(int i);
  void heap_down(int i);

  std::vector<Clause> clauses_;
  std::vector<std::vector<Watch>> watches_;        // indexed by lit code
  std::vector<std::vector<BinWatch>> bin_watches_;  // indexed by lit code
  std::vector<LBool> assigns_;
  std::vector<bool> phase_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<Var> heap_;
  std::vector<int> heap_pos_;

  std::vector<std::uint8_t> seen_;
  std::vector<Var> analyze_clear_;
  std::vector<Lit> analyze_stack_;

  bool has_deadline_ = false;
  std::int64_t deadline_ns_ = 0;  ///< steady_clock epoch nanoseconds

  std::int64_t conflict_budget_ = -1;
  StopCause last_stop_ = StopCause::kNone;
  std::int64_t stats_conflicts_ = 0;
  std::int64_t stats_decisions_ = 0;
  std::int64_t stats_propagations_ = 0;
  std::int64_t stats_learned_ = 0;
  std::int64_t stats_clauses_added_ = 0;
  std::int64_t stats_db_reductions_ = 0;
  std::int64_t live_clauses_ = 0;
  std::int64_t peak_clauses_ = 0;
  std::int64_t learnt_count_ = 0;  ///< live learnt clauses (reduction policy)
  bool ok_ = true;
};

}  // namespace stt::sat
