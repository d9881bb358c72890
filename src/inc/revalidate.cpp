#include "inc/revalidate.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine_util.h"
#include "enc/unroller.h"
#include "smt/solver.h"

namespace verdict::inc {

using expr::Expr;

namespace {

RevalidateResult fail(RevalidateResult r, std::string reason) {
  r.valid = false;
  r.reason = std::move(reason);
  return r;
}

void track(RevalidateResult& r, const smt::Solver& s) {
  r.solver_checks += s.num_checks();
  r.solver_seconds += s.check_seconds();
}

std::string query_failed(const char* which, smt::CheckResult r) {
  return std::string(which) +
         (r == smt::CheckResult::kSat ? " query sat" : " query unknown");
}

}  // namespace

RevalidateResult revalidate(const ts::TransitionSystem& system,
                            const ltl::Formula& property,
                            const core::ProofArtifact& artifact,
                            const util::Deadline& deadline) {
  RevalidateResult result;
  if (!ltl::is_invariant_property(property))
    return fail(std::move(result), "artifact certifies only invariant properties");
  const Expr p = ltl::invariant_atom(property);

  // Resolve every certificate variable against the target system. An id the
  // system does not declare means the certificate speaks about state this
  // cone no longer has — it cannot be checked, so it cannot be trusted.
  std::unordered_map<expr::VarId, Expr> declared;
  for (const Expr v : system.vars()) declared.emplace(v.var(), v);
  for (const Expr q : system.params()) declared.emplace(q.var(), q);
  const auto resolve = [&declared](expr::VarId id) -> std::optional<Expr> {
    const auto it = declared.find(id);
    if (it == declared.end()) return std::nullopt;
    return it->second;
  };

  // Inv := P /\ pins /\ AND(!cube). For kKInduction the cube list is empty
  // and Inv degenerates to the (pinned) property itself.
  std::vector<Expr> conjuncts{p};
  for (const auto& [id, value] : artifact.pinned.values()) {
    const std::optional<Expr> var = resolve(id);
    if (!var)
      return fail(std::move(result),
                  "pinned variable not in system: " + expr::var_name(id));
    conjuncts.push_back(expr::mk_eq(*var, expr::constant_of(value, var->type())));
  }
  for (const ts::State& cube : artifact.cubes) {
    std::vector<Expr> lits;
    for (const auto& [id, value] : cube.values()) {
      const std::optional<Expr> var = resolve(id);
      if (!var)
        return fail(std::move(result),
                    "cube variable not in system: " + expr::var_name(id));
      lits.push_back(expr::mk_eq(*var, expr::constant_of(value, var->type())));
    }
    if (lits.empty()) return fail(std::move(result), "empty cube in artifact");
    conjuncts.push_back(expr::mk_not(expr::mk_and(lits)));
  }
  const Expr inv = expr::mk_and(conjuncts);

  if (artifact.kind == core::ProofArtifact::Kind::kPdrInvariant) {
    // Base: every initial state (under the parameter constraints) is in Inv.
    {
      smt::Solver solver;
      solver.add(system.init_formula(), 0);
      solver.add(system.param_formula(), 0);
      solver.add(system.invar_formula(), 0);
      for (const Expr v : system.vars()) solver.add(ts::range_constraint(v), 0);
      for (const Expr q : system.params()) solver.add(ts::range_constraint(q), 0);
      solver.add(expr::mk_not(inv), 0);
      const smt::CheckResult r = solver.check(deadline);
      track(result, solver);
      if (r != smt::CheckResult::kUnsat)
        return fail(std::move(result), query_failed("initiation", r));
    }
    // Consecution: Inv is closed under one transition (params frozen, the
    // same extended-state discipline as the PDR engine itself).
    {
      smt::Solver solver;
      for (int frame = 0; frame <= 1; ++frame) {
        solver.add(system.invar_formula(), frame);
        for (const Expr v : system.vars()) solver.add(ts::range_constraint(v), frame);
        for (const Expr q : system.params()) solver.add(ts::range_constraint(q), frame);
      }
      solver.add(system.param_formula(), 0);
      solver.add(system.trans_formula(), 0);
      for (const Expr q : system.params())
        solver.add(expr::mk_eq(expr::next(q), q), 0);
      solver.add(inv, 0);
      solver.add(expr::mk_not(inv), 1);
      const smt::CheckResult r = solver.check(deadline);
      track(result, solver);
      if (r != smt::CheckResult::kUnsat)
        return fail(std::move(result), query_failed("consecution", r));
    }
    result.valid = true;
    return result;
  }

  // kKInduction: replay (k+1)-induction at exactly the cached k — one base
  // window (all k+1 bad positions in a single query) and one step window
  // with the full simple-path strengthening the engine had accumulated by
  // the time its step query closed.
  const int k = artifact.k;
  const Expr bad = expr::mk_not(inv);
  {
    smt::Solver solver;
    enc::Unroller unroller(solver, system);
    unroller.ensure_frames(k);
    z3::expr_vector bads(solver.context());
    for (int i = 0; i <= k; ++i) bads.push_back(solver.translate(bad, i));
    const z3::expr act = solver.fresh_bool("inc_base");
    solver.add(z3::implies(act, z3::mk_or(bads)));
    const std::vector<z3::expr> assumptions{act};
    const smt::CheckResult r = solver.check_assuming(assumptions, deadline);
    track(result, solver);
    if (r != smt::CheckResult::kUnsat)
      return fail(std::move(result), query_failed("induction base", r));
  }
  {
    smt::Solver solver;
    enc::Unroller unroller(solver, system, {.assert_init = false});
    unroller.ensure_frames(k + 1);
    for (int i = 0; i <= k; ++i) solver.add(inv, i);
    if (!system.vars().empty()) {
      for (int i = 1; i <= k + 1; ++i)
        for (int j = 0; j < i; ++j) solver.add(core::states_distinct(solver, system, j, i));
    }
    const std::vector<z3::expr> assumptions{unroller.literal(bad, k + 1)};
    const smt::CheckResult r = solver.check_assuming(assumptions, deadline);
    track(result, solver);
    if (r != smt::CheckResult::kUnsat)
      return fail(std::move(result), query_failed("induction step", r));
  }
  result.valid = true;
  return result;
}

}  // namespace verdict::inc
