#include "core/pdr.h"

#include <algorithm>
#include <queue>

#include "expr/walk.h"
#include "obs/trace.h"
#include "smt/solver.h"
#include "util/log.h"

namespace verdict::core {

using expr::Expr;
using expr::Value;

namespace {

struct Lemma {
  z3::expr act;                 // activation literal
  int level;                    // member of F_1 .. F_level
  ts::State cube;               // the blocked (generalized) cube
};

struct Obligation {
  ts::State state;  // full assignment over vars + params
  int level;
  std::size_t parent;  // index into the obligation arena, SIZE_MAX for the root
};

class Pdr {
 public:
  Pdr(const ts::TransitionSystem& ts, Expr invariant, const PdrOptions& options)
      : ts_(ts), invariant_(invariant), options_(options), init_act_(solver_.context()) {
    // Extended state vector: state vars plus params (params frozen by trans).
    for (Expr v : ts.vars()) evars_.push_back(v);
    for (Expr p : ts.params()) evars_.push_back(p);

    // Permanent: state constraints at frames 0/1, transition, param freeze.
    for (int frame = 0; frame <= 1; ++frame) {
      solver_.add(ts.invar_formula(), frame);
      for (Expr v : evars_) solver_.add(ts::range_constraint(v), frame);
    }
    solver_.add(ts.trans_formula(), 0);
    for (Expr p : ts.params()) solver_.add(expr::mk_eq(expr::next(p), p), 0);

    // Guarded initial states: init plus the parameter constraints.
    init_act_ = solver_.fresh_bool("pdr_init");
    solver_.add(z3::implies(init_act_,
                            solver_.translate(ts.init_formula(), 0) &&
                                solver_.translate(ts.param_formula(), 0)));

    init_concrete_ = expr::mk_and({ts.init_formula(), ts.param_formula()});
  }

  CheckOutcome run() {
    util::Stopwatch watch;
    CheckOutcome outcome;
    outcome.stats.engine = "pdr";
    if (obs::TraceSink* s = obs::sink())
      s->event("engine.start").attr("engine", outcome.stats.engine).emit();
    const auto finish = [&](Verdict v, const std::string& message = "") {
      outcome.verdict = v;
      outcome.message = message;
      outcome.stats.solver_checks = solver_.num_checks();
      outcome.stats.frame_assertions = solver_.num_assertions();
      outcome.stats.solvers_created = 1;
      outcome.stats.solver_seconds = solver_.check_seconds();
      outcome.stats.seconds = watch.elapsed_seconds();
      if (obs::TraceSink* s = obs::sink())
        s->event("engine.finish")
            .attr("engine", outcome.stats.engine)
            .attr("verdict", verdict_name(v))
            .attr("seconds", outcome.stats.seconds)
            .attr("solver_seconds", outcome.stats.solver_seconds)
            .attr("checks", outcome.stats.solver_checks)
            .attr("depth", outcome.stats.depth_reached)
            .emit();
      return outcome;
    };

    // Depth-0 counterexample: an initial state violating the invariant.
    {
      solver_.push();
      solver_.add(expr::mk_not(invariant_), 0);
      std::vector<z3::expr> assumptions{init_act_};
      const smt::CheckResult r = solver_.check_assuming(assumptions, options_.deadline);
      if (r == smt::CheckResult::kSat) {
        const ts::State s = solver_.state_at(evars_, 0);
        solver_.pop();
        outcome.counterexample = trace_from_states({s});
        outcome.stats.depth_reached = 0;
        return finish(Verdict::kViolated);
      }
      solver_.pop();
      if (r == smt::CheckResult::kUnknown)
        return finish(expired() ? Verdict::kTimeout : Verdict::kUnknown,
                      "initial query unknown");
    }

    int n = 1;  // current frontier frame
    while (true) {
      outcome.stats.depth_reached = n;
      if (obs::TraceSink* s = obs::sink())
        s->event("pdr.frame").attr("frame", n).attr("lemmas", lemmas_.size()).emit();
      if (expired()) return finish(Verdict::kTimeout, "deadline at frame " + std::to_string(n));
      if (n > options_.max_frames)
        return finish(Verdict::kBoundReached,
                      "frame limit " + std::to_string(options_.max_frames) + " reached");

      // Is there an F_n state violating the invariant?
      solver_.push();
      solver_.add(expr::mk_not(invariant_), 0);
      std::vector<z3::expr> assumptions = frame_assumptions(n);
      const smt::CheckResult r = solver_.check_assuming(assumptions, options_.deadline);
      if (r == smt::CheckResult::kUnknown) {
        solver_.pop();
        return finish(expired() ? Verdict::kTimeout : Verdict::kUnknown,
                      "bad-state query unknown at frame " + std::to_string(n));
      }
      if (r == smt::CheckResult::kSat) {
        const ts::State bad = solver_.state_at(evars_, 0);
        solver_.pop();
        std::optional<ts::Trace> cex;
        if (!block(bad, n, &cex)) {
          outcome.counterexample = std::move(cex);
          return finish(Verdict::kViolated);
        }
        if (blocked_verdict_ == Verdict::kTimeout || blocked_verdict_ == Verdict::kUnknown)
          return finish(blocked_verdict_, "blocking aborted at frame " + std::to_string(n));
        continue;
      }
      solver_.pop();

      // Frontier is clean: extend and propagate.
      ++n;
      if (!propagate(n)) return finish(expired() ? Verdict::kTimeout : Verdict::kUnknown,
                                       "propagation aborted");
      for (int i = 1; i < n; ++i) {
        if (std::none_of(lemmas_.begin(), lemmas_.end(),
                         [&](const Lemma& l) { return l.level == i; })) {
          // F_i = F_{i+1}: the lemmas at level >= i (plus the property)
          // form an inductive invariant. Export them as a re-checkable
          // certificate so a later model revision can revalidate with one
          // base + one consecution query instead of a fresh PDR run.
          ProofArtifact artifact;
          artifact.kind = ProofArtifact::Kind::kPdrInvariant;
          artifact.k = i;
          for (const Lemma& l : lemmas_)
            if (l.level >= i) artifact.cubes.push_back(l.cube);
          outcome.artifact = std::move(artifact);
          return finish(Verdict::kHolds,
                        "inductive invariant found at frame " + std::to_string(i));
        }
      }
    }
  }

 private:
  bool expired() const { return options_.deadline.expired_or_cancelled(); }

  // Assumption literals activating every lemma of F_level.
  std::vector<z3::expr> frame_assumptions(int level) const {
    std::vector<z3::expr> out;
    for (const Lemma& l : lemmas_)
      if (l.level >= level) out.push_back(l.act);
    return out;
  }

  // (var == value) literal of a cube at `frame`.
  z3::expr literal_at(Expr var, const Value& value, int frame) {
    return solver_.translate(var, frame) ==
           solver_.translate(expr::constant_of(value, var.type()), 0);
  }

  // Negation of a cube at frame 0 (a clause).
  z3::expr clause_at0(const ts::State& cube) {
    z3::expr_vector lits(solver_.context());
    for (const auto& [id, v] : cube.values()) {
      const Expr var = expr::var_by_name(expr::var_name(id));
      lits.push_back(!literal_at(var, v, 0));
    }
    return z3::mk_or(lits);
  }

  bool state_is_initial(const ts::State& s) const {
    expr::Env env;
    for (const auto& [id, v] : s.values()) env.set(id, v);
    return expr::eval_bool(init_concrete_, env);
  }

  // Checks whether cube (as a conjunction) intersects the initial states.
  bool cube_intersects_init(const ts::State& cube) {
    solver_.push();
    for (const auto& [id, v] : cube.values()) {
      const Expr var = expr::var_by_name(expr::var_name(id));
      solver_.add(literal_at(var, v, 0));
    }
    std::vector<z3::expr> assumptions{init_act_};
    const smt::CheckResult r = solver_.check_assuming(assumptions, options_.deadline);
    solver_.pop();
    return r != smt::CheckResult::kUnsat;  // conservative on unknown
  }

  // Relative induction check for `cube` at `level`; on unsat fills
  // `generalized` (subset cube) and returns false (not reachable); on sat
  // fills `predecessor` and returns true.
  enum class RelInd { kBlocked, kHasPredecessor, kAbort };
  RelInd relative_induction(const ts::State& cube, int level, ts::State* generalized,
                            ts::State* predecessor) {
    solver_.push();
    solver_.add(clause_at0(cube));  // !cube in the pre-state (avoids self-loops)

    std::vector<z3::expr> assumptions =
        level - 1 >= 1 ? frame_assumptions(level - 1) : std::vector<z3::expr>{};
    if (level - 1 == 0) assumptions.push_back(init_act_);

    // Indicator per cube literal at frame 1 so the unsat core generalizes.
    std::vector<std::pair<expr::VarId, z3::expr>> indicators;
    for (const auto& [id, v] : cube.values()) {
      const Expr var = expr::var_by_name(expr::var_name(id));
      z3::expr t = solver_.fresh_bool("lit");
      solver_.add(z3::implies(t, literal_at(var, v, 1)));
      assumptions.push_back(t);
      indicators.emplace_back(id, t);
    }

    const smt::CheckResult r = solver_.check_assuming(assumptions, options_.deadline);
    if (r == smt::CheckResult::kUnknown) {
      solver_.pop();
      return RelInd::kAbort;
    }
    if (r == smt::CheckResult::kSat) {
      *predecessor = solver_.state_at(evars_, 0);
      solver_.pop();
      return RelInd::kHasPredecessor;
    }

    // Unsat: keep only the literals whose indicators appear in the core.
    ts::State g;
    if (options_.generalize) {
      const std::vector<z3::expr> core = solver_.unsat_core();
      for (const auto& [id, t] : indicators) {
        const bool in_core = std::any_of(core.begin(), core.end(), [&](const z3::expr& c) {
          return z3::eq(c, t);
        });
        if (in_core) g.set(expr::var_by_name(expr::var_name(id)), *cube.get(id));
      }
      if (g.empty()) g = cube;
    } else {
      g = cube;
    }
    solver_.pop();

    // A lemma must exclude no initial state.
    if (options_.generalize && !(g == cube) && cube_intersects_init(g)) g = cube;
    *generalized = g;
    return RelInd::kBlocked;
  }

  void learn(const ts::State& cube, int level) {
    Lemma lemma{solver_.fresh_bool("lem"), level, cube};
    solver_.add(z3::implies(lemma.act, clause_at0(cube)));
    lemmas_.push_back(std::move(lemma));
    obs::count("pdr.lemmas");
  }

  // Blocks `bad` at `level`; returns false when a counterexample was found
  // (stored into *cex). Sets blocked_verdict_ to kTimeout/kUnknown on abort.
  bool block(const ts::State& bad, int level, std::optional<ts::Trace>* cex) {
    blocked_verdict_ = Verdict::kHolds;
    std::vector<Obligation> arena;
    // Min-heap of (level, arena index); lowest level first.
    using Entry = std::pair<int, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    arena.push_back(Obligation{bad, level, SIZE_MAX});
    queue.emplace(level, 0);

    while (!queue.empty()) {
      if (expired()) {
        blocked_verdict_ = Verdict::kTimeout;
        return true;
      }
      const auto [lvl, idx] = queue.top();
      queue.pop();
      obs::count("pdr.obligations");
      const Obligation ob = arena[idx];

      if (lvl == 0 || state_is_initial(ob.state)) {
        // Initial state reaching the violation: assemble the trace.
        std::vector<ts::State> chain;
        for (std::size_t cur = idx; cur != SIZE_MAX; cur = arena[cur].parent)
          chain.push_back(arena[cur].state);
        *cex = trace_from_states(chain);
        return false;
      }

      ts::State generalized;
      ts::State predecessor;
      switch (relative_induction(ob.state, lvl, &generalized, &predecessor)) {
        case RelInd::kAbort:
          blocked_verdict_ = expired() ? Verdict::kTimeout : Verdict::kUnknown;
          return true;
        case RelInd::kBlocked:
          learn(generalized, lvl);
          // Standard refinement: chase the same cube at the next frame so the
          // frontier keeps making progress.
          if (lvl < static_cast<int>(level)) {
            arena.push_back(Obligation{ob.state, lvl + 1, ob.parent});
            queue.emplace(lvl + 1, arena.size() - 1);
          }
          break;
        case RelInd::kHasPredecessor:
          arena.push_back(Obligation{predecessor, lvl - 1, idx});
          queue.emplace(lvl - 1, arena.size() - 1);
          queue.emplace(lvl, idx);  // retry after the predecessor is handled
          break;
      }
    }
    return true;
  }

  // Pushes lemmas forward: a lemma at level l moves to l+1 when
  // F_l /\ T => lemma' holds.
  bool propagate(int frontier) {
    for (int l = 1; l < frontier; ++l) {
      for (Lemma& lemma : lemmas_) {
        if (lemma.level != l) continue;
        if (expired()) return false;
        solver_.push();
        // cube satisfied at frame 1 (negation of the pushed lemma).
        for (const auto& [id, v] : lemma.cube.values()) {
          const Expr var = expr::var_by_name(expr::var_name(id));
          solver_.add(literal_at(var, v, 1));
        }
        const std::vector<z3::expr> assumptions = frame_assumptions(l);
        const smt::CheckResult r = solver_.check_assuming(assumptions, options_.deadline);
        solver_.pop();
        if (r == smt::CheckResult::kUnsat) lemma.level = l + 1;
        if (r == smt::CheckResult::kUnknown && expired()) return false;
      }
    }
    return true;
  }

  // Splits extended states (vars + params) into a Trace.
  ts::Trace trace_from_states(const std::vector<ts::State>& chain) const {
    ts::Trace trace;
    if (chain.empty()) return trace;
    for (Expr p : ts_.params()) {
      const auto v = chain.front().get(p);
      if (v) trace.params.set(p, *v);
    }
    for (const ts::State& s : chain) {
      ts::State vars_only;
      for (Expr v : ts_.vars()) {
        const auto val = s.get(v);
        if (val) vars_only.set(v, *val);
      }
      trace.states.push_back(std::move(vars_only));
    }
    return trace;
  }

  const ts::TransitionSystem& ts_;
  Expr invariant_;
  PdrOptions options_;
  smt::Solver solver_;
  std::vector<Expr> evars_;
  z3::expr init_act_;
  Expr init_concrete_;
  std::vector<Lemma> lemmas_;
  Verdict blocked_verdict_ = Verdict::kHolds;
};

}  // namespace

CheckOutcome check_invariant_pdr(const ts::TransitionSystem& ts, Expr invariant,
                                 const PdrOptions& options) {
  if (!invariant.valid() || !invariant.type().is_bool())
    throw std::invalid_argument("check_invariant_pdr: invariant must be boolean");
  ts.validate();
  Pdr pdr(ts, invariant, options);
  return pdr.run();
}

}  // namespace verdict::core
