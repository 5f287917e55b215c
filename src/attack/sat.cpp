#include "attack/sat.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace stt::sat {

namespace {

constexpr double kVarDecay = 1.0 / 0.95;
constexpr double kClauseDecay = 1.0 / 0.999;
constexpr double kRescale = 1e100;
// Conflicts per Luby restart unit.
constexpr std::int64_t kRestartUnit = 100;

// Deadline polling period: one wall-clock read per this many conflicts.
constexpr std::int64_t kDeadlineCheckMask = 255;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int64_t luby_sequence(std::int64_t i) {
  // Find the smallest complete binary sequence (size 2^seq - 1) holding i.
  std::int64_t size = 1;
  std::int64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return 1ll << seq;
}

Solver::Solver() = default;

void Solver::set_deadline(double seconds_from_now) {
  if (seconds_from_now < 0) {
    has_deadline_ = false;
    return;
  }
  // Saturate: a huge limit (e.g. a campaign's "effectively unbounded")
  // must not overflow the nanosecond epoch into an already-expired one.
  const double ns = seconds_from_now * 1e9;
  if (ns >= 9.0e18 - static_cast<double>(steady_now_ns())) {
    has_deadline_ = false;
    return;
  }
  has_deadline_ = true;
  deadline_ns_ = steady_now_ns() + static_cast<std::int64_t>(ns);
}

bool Solver::deadline_expired() const {
  return has_deadline_ && steady_now_ns() >= deadline_ns_;
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(activity_.size());
  activity_.push_back(0.0);
  assigns_.push_back(kUndef);
  phase_.push_back(false);
  level_.push_back(0);
  reason_.push_back(kNoClause);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v;
}

void Solver::heap_insert(Var v) {
  if (heap_pos_[v] >= 0) return;
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_up(heap_pos_[v]);
}

void Solver::heap_up(int i) {
  const Var v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::heap_down(int i) {
  const Var v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_down(0);
  }
  return top;
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kRescale) {
    for (double& a : activity_) a /= kRescale;
    var_inc_ /= kRescale;
  }
  if (heap_pos_[v] >= 0) heap_up(heap_pos_[v]);
}

void Solver::bump_clause(Clause& c) {
  c.activity += clause_inc_;
  if (c.activity > kRescale) {
    for (Clause& cl : clauses_) {
      if (cl.learnt) cl.activity /= kRescale;
    }
    clause_inc_ /= kRescale;
  }
}

void Solver::decay_activities() {
  var_inc_ *= kVarDecay;
  clause_inc_ *= kClauseDecay;
}

void Solver::attach(ClauseRef cr) {
  const Clause& c = clauses_[cr];
  if (c.lits.size() == 2) {
    bin_watches_[(~c.lits[0]).code()].push_back({c.lits[1], cr});
    bin_watches_[(~c.lits[1]).code()].push_back({c.lits[0], cr});
    return;
  }
  watches_[(~c.lits[0]).code()].push_back({cr, c.lits[1]});
  watches_[(~c.lits[1]).code()].push_back({cr, c.lits[0]});
}

void Solver::note_clause_stored() {
  ++live_clauses_;
  if (live_clauses_ > peak_clauses_) peak_clauses_ = live_clauses_;
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  const Var v = l.var();
  assigns_[v] = l.negated() ? kFalse : kTrue;
  level_[v] = static_cast<int>(trail_lim_.size());
  reason_[v] = reason;
  trail_.push_back(l);
}

bool Solver::add_clause(std::initializer_list<Lit> lits) {
  return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
}

bool Solver::add_clause(std::span<const Lit> lits_in) {
  if (!ok_) return false;
  ++stats_clauses_added_;
  backtrack(0);

  // Simplify at level 0: sort, dedupe, drop false literals, detect
  // tautologies and already-satisfied clauses.
  std::vector<Lit> lits(lits_in.begin(), lits_in.end());
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::vector<Lit> out;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && lits[i] == lits[i + 1]) continue;
    if (i + 1 < lits.size() && lits[i] == ~lits[i + 1]) return true;  // taut
    const LBool v = lit_value(lits[i]);
    if (v == kTrue) return true;  // satisfied at level 0
    if (v == kFalse) continue;    // falsified at level 0: drop
    out.push_back(lits[i]);
  }

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], kNoClause);
    if (propagate() != kNoClause) ok_ = false;
    return ok_;
  }
  clauses_.push_back({std::move(out), 0.0, false, false});
  attach(static_cast<ClauseRef>(clauses_.size() - 1));
  note_clause_stored();
  return true;
}

Solver::ClauseRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_propagations_;

    // Binary clauses first: no watch migration, no clause dereference on
    // the satisfied path.
    for (const BinWatch& bw : bin_watches_[p.code()]) {
      const LBool v = lit_value(bw.other);
      if (v == kTrue) continue;
      if (v == kFalse) {
        qhead_ = trail_.size();
        return bw.cr;
      }
      enqueue(bw.other, bw.cr);
    }

    auto& ws = watches_[p.code()];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ws.size()) {
      // Blocker check: if some other literal of the clause is already true
      // the clause is satisfied; keep the watch and move on.
      if (lit_value(ws[i].blocker) == kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      const ClauseRef cr = ws[i].cr;
      Clause& c = clauses_[cr];
      if (c.deleted) {
        ++i;
        continue;
      }
      // Normalize: the falsified watcher (~p) sits at index 1.
      const Lit false_lit = ~p;
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      const Lit first = c.lits[0];
      if (lit_value(first) == kTrue) {
        ws[j++] = {cr, first};
        ++i;
        continue;
      }
      // Look for a replacement watch.
      bool found = false;
      for (std::size_t k = 2; k < c.lits.size(); ++k) {
        if (lit_value(c.lits[k]) != kFalse) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[(~c.lits[1]).code()].push_back({cr, first});
          found = true;
          break;
        }
      }
      if (found) {
        ++i;  // moved to another watch list
        continue;
      }
      // Unit or conflicting.
      ws[j++] = {cr, first};
      ++i;
      if (lit_value(first) == kFalse) {
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        qhead_ = trail_.size();
        return cr;
      }
      enqueue(first, cr);
    }
    ws.resize(j);
  }
  return kNoClause;
}

void Solver::backtrack(int target_level, bool save_phases) {
  if (static_cast<int>(trail_lim_.size()) <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const Var v = trail_[i - 1].var();
    if (save_phases) phase_[v] = (assigns_[v] == kTrue);
    assigns_[v] = kUndef;
    reason_[v] = kNoClause;
    heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  qhead_ = trail_.size();
}

// Recursive (MiniSat-style) redundancy test: a non-asserting learnt literal
// can be dropped when its reason-side ancestry stays inside literals already
// marked `seen_` (i.e. already in the learnt clause). `levels_mask` is the
// abstraction of the decision levels present in the clause; any ancestor on
// a level outside it cannot be dominated, so the walk fails fast.
bool Solver::lit_redundant(Lit l, std::uint32_t levels_mask) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const Clause& c = clauses_[reason_[q.var()]];
    for (const Lit p : c.lits) {
      const Var v = p.var();
      if (v == q.var() || seen_[v] || level_[v] == 0) continue;
      if (reason_[v] == kNoClause || (abstract_level(v) & levels_mask) == 0) {
        // Hit a decision or an unreachable level: not redundant. Unwind the
        // speculative marks added during this walk.
        for (std::size_t k = top; k < analyze_clear_.size(); ++k) {
          seen_[analyze_clear_[k]] = 0;
        }
        analyze_clear_.resize(top);
        return false;
      }
      seen_[v] = 1;
      analyze_clear_.push_back(v);
      analyze_stack_.push_back(p);
    }
  }
  return true;
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& learnt,
                     int& bt_level) {
  learnt.clear();
  learnt.push_back(Lit::undef());  // placeholder for the asserting literal

  const int current = static_cast<int>(trail_lim_.size());
  int counter = 0;
  Lit p = Lit::undef();
  std::size_t index = trail_.size();
  analyze_clear_.clear();

  do {
    Clause& c = clauses_[confl];
    if (c.learnt) bump_clause(c);
    for (const Lit q : c.lits) {
      if (p != Lit::undef() && q == p) continue;
      const Var v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = 1;
        analyze_clear_.push_back(v);
        bump_var(v);
        if (level_[v] >= current) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Walk back to the next marked literal on the trail.
    while (!seen_[trail_[index - 1].var()]) --index;
    --index;
    p = trail_[index];
    confl = reason_[p.var()];
    seen_[p.var()] = 0;
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;
  seen_[p.var()] = 1;  // keep the UIP marked for the redundancy walks
  analyze_clear_.push_back(p.var());

  // Recursive clause minimization: drop literals whose reason ancestry is
  // dominated by the rest of the clause.
  std::uint32_t levels_mask = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    levels_mask |= abstract_level(learnt[i].var());
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const Var v = learnt[i].var();
    if (reason_[v] == kNoClause || !lit_redundant(learnt[i], levels_mask)) {
      learnt[keep++] = learnt[i];
    }
  }
  learnt.resize(keep);

  // Backtrack level: highest level among the non-asserting literals; put
  // that literal at index 1 so it is watched.
  bt_level = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (level_[learnt[i].var()] > bt_level) {
      bt_level = level_[learnt[i].var()];
      std::swap(learnt[1], learnt[i]);
    }
  }

  for (const Var v : analyze_clear_) seen_[v] = 0;
}

Lit Solver::pick_branch() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (assigns_[v] == kUndef) return Lit(v, !phase_[v]);
  }
  return Lit::undef();
}

void Solver::reduce_db() {
  // Only called at decision level 0 (right after a restart), so rebuilding
  // watches is safe.
  std::vector<ClauseRef> learnts;
  for (ClauseRef cr = 0; cr < static_cast<ClauseRef>(clauses_.size()); ++cr) {
    const Clause& c = clauses_[cr];
    if (c.learnt && !c.deleted && c.lits.size() > 2) learnts.push_back(cr);
  }
  std::sort(learnts.begin(), learnts.end(), [this](ClauseRef a, ClauseRef b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  const std::size_t drop = learnts.size() / 2;
  for (std::size_t i = 0; i < drop; ++i) {
    clauses_[learnts[i]].deleted = true;
    --learnt_count_;
    --live_clauses_;
  }
  ++stats_db_reductions_;
  rebuild_watches();
}

void Solver::rebuild_watches() {
  for (auto& w : watches_) w.clear();
  for (auto& w : bin_watches_) w.clear();
  for (ClauseRef cr = 0; cr < static_cast<ClauseRef>(clauses_.size()); ++cr) {
    if (!clauses_[cr].deleted) attach(cr);
  }
}

bool Solver::value(Var v) const { return assigns_[v] == kTrue; }

Result Solver::solve(std::span<const Lit> assumptions) {
  last_stop_ = StopCause::kNone;
  if (!ok_) return Result::kUnsat;
  // The unwound assignments are the previous call's model, whose phases
  // were saved on the way out — re-saving here would clobber any
  // set_phase() hints given between calls.
  backtrack(0, /*save_phases=*/false);
  if (propagate() != kNoClause) {
    ok_ = false;
    return Result::kUnsat;
  }

  const std::int64_t budget_end =
      conflict_budget_ < 0 ? -1 : stats_conflicts_ + conflict_budget_;
  std::int64_t max_learnts =
      static_cast<std::int64_t>(clauses_.size()) / 3 + 2000;
  std::int64_t restart_index = 0;
  std::int64_t restart_limit = luby_sequence(restart_index) * kRestartUnit;
  std::int64_t conflicts_since_restart = 0;
  std::vector<Lit> learnt;

  while (true) {
    const ClauseRef confl = propagate();
    if (confl != kNoClause) {
      ++stats_conflicts_;
      ++conflicts_since_restart;
      if (trail_lim_.empty()) {
        ok_ = false;
        return Result::kUnsat;
      }
      int bt_level = 0;
      analyze(confl, learnt, bt_level);
      backtrack(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoClause);
      } else {
        clauses_.push_back({learnt, 0.0, true, false});
        const auto cr = static_cast<ClauseRef>(clauses_.size() - 1);
        bump_clause(clauses_[cr]);
        attach(cr);
        note_clause_stored();
        enqueue(learnt[0], cr);
        ++learnt_count_;
      }
      ++stats_learned_;
      decay_activities();
      if (budget_end >= 0 && stats_conflicts_ >= budget_end) {
        backtrack(0);
        last_stop_ = StopCause::kConflictBudget;
        return Result::kUnknown;
      }
      if ((stats_conflicts_ & kDeadlineCheckMask) == 0 && deadline_expired()) {
        backtrack(0);
        last_stop_ = StopCause::kDeadline;
        return Result::kUnknown;
      }
      continue;
    }

    if (conflicts_since_restart >= restart_limit) {
      backtrack(0);
      ++restart_index;
      restart_limit = luby_sequence(restart_index) * kRestartUnit;
      conflicts_since_restart = 0;
      if (learnt_count_ > max_learnts) {
        reduce_db();
        max_learnts = max_learnts + max_learnts / 10;
      }
      continue;
    }

    // Assumptions are replayed as forced decisions below the search.
    Lit next = Lit::undef();
    bool unsat_assumption = false;
    while (static_cast<std::size_t>(trail_lim_.size()) < assumptions.size()) {
      const Lit p = assumptions[trail_lim_.size()];
      const LBool v = lit_value(p);
      if (v == kTrue) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));
      } else if (v == kFalse) {
        unsat_assumption = true;
        break;
      } else {
        next = p;
        break;
      }
    }
    if (unsat_assumption) {
      backtrack(0);
      return Result::kUnsat;
    }
    if (next == Lit::undef()) {
      next = pick_branch();
      if (next == Lit::undef()) {
        // Save the model's phases now: the next solve() unwinds the trail
        // without saving (see the entry backtrack).
        for (const Lit p : trail_) phase_[p.var()] = !p.negated();
        return Result::kSat;  // model in assigns_
      }
      ++stats_decisions_;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(next, kNoClause);
  }
}

}  // namespace stt::sat
