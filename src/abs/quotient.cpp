#include "abs/quotient.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <bit>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "expr/walk.h"
#include "obs/trace.h"
#include "smt/solver.h"

namespace verdict::abs {

namespace detail {
// Defined in symmetry.cpp.
bool flatten_disjuncts(expr::Expr e, std::vector<std::vector<expr::Expr>>& out);
}  // namespace detail

namespace {

using expr::Expr;
using expr::Kind;

bool is_int_const(Expr e, std::int64_t v) {
  return e.is_constant() && e.type().is_int() &&
         std::get<std::int64_t>(e.constant_value()) == v;
}

Expr placeholder_for(const expr::Type& t) {
  if (t.is_bool()) return expr::bool_var("__abs.ph.bool");
  return expr::int_var("__abs.ph.int." + std::to_string(t.lo) + "." + std::to_string(t.hi),
                       t.lo, t.hi);
}

std::string value_suffix(const expr::Value& v) {
  if (std::holds_alternative<bool>(v)) return std::get<bool>(v) ? "t" : "f";
  return std::to_string(std::get<std::int64_t>(v));
}

/// One active orbit during quotient construction.
struct Ctx {
  Orbit orbit;
  expr::Type type;
  Expr ph;                             // template placeholder for this type
  std::vector<expr::Value> domain;
  std::vector<Expr> domain_consts;
  std::vector<Expr> counters;
  std::optional<std::size_t> init_index;  // uniform initial value, if any
  Expr strengthened_guard;
  std::int64_t threshold = -1;
  std::vector<std::string> notes;

  [[nodiscard]] std::size_t size() const { return orbit.members.size(); }
};

/// Where an expression touches orbit members. `members` lists distinct
/// current-position members up to a small cap — enough to recognize the
/// "exactly one member" template shapes; anything larger only needs the mask.
struct NodeInfo {
  std::uint64_t cur_mask = 0;
  std::uint64_t next_mask = 0;
  bool other_cur = false;  // a current-position non-member variable
  bool overflow = false;
  std::vector<std::pair<std::size_t, std::size_t>> members;  // (orbit, index)
};

constexpr std::size_t kMemberCap = 2;

class Builder {
 public:
  Builder(const ts::TransitionSystem& ts, std::span<const Expr> atoms,
          const AbstractionOptions& options, std::span<const Orbit> active)
      : ts_(ts), options_(options) {
    for (const Orbit& o : active) {
      if (ctxs_.size() >= 64) break;  // mask width; far beyond practical counts
      Ctx ctx;
      ctx.orbit = o;
      ctx.type = o.members.front().type();
      ctx.ph = placeholder_for(ctx.type);
      if (ctx.type.is_bool()) {
        ctx.domain = {expr::Value{false}, expr::Value{true}};
      } else {
        for (std::int64_t v = ctx.type.lo; v <= ctx.type.hi; ++v)
          ctx.domain.push_back(expr::Value{v});
      }
      for (const expr::Value& v : ctx.domain)
        ctx.domain_consts.push_back(expr::constant_of(v, ctx.type));
      const auto n = static_cast<std::int64_t>(ctx.size());
      // The member count is part of the name: a CEGAR split re-derives
      // counters over a smaller orbit with the same first member, and the
      // arena rejects redeclaring a name at a different [0, N] range.
      for (const expr::Value& v : ctx.domain)
        ctx.counters.push_back(
            expr::int_var("__abs." + o.members.front().var_name() + "." +
                              std::to_string(ctx.size()) + ".n" + value_suffix(v),
                          0, n));
      const std::size_t orbit_index = ctxs_.size();
      for (std::size_t i = 0; i < o.members.size(); ++i)
        member_of_.emplace(o.members[i].var(), std::make_pair(orbit_index, i));
      ctxs_.push_back(std::move(ctx));
    }
    atoms_.assign(atoms.begin(), atoms.end());
  }

  /// True on success; otherwise `blocked` names orbit indices to drop.
  bool run() {
    find_init_values();
    strengthen_atoms();
    if (expired()) return fail_all();
    for (Expr& a : atoms_) {
      a = rewrite(a);
      block_raw(a);
    }
    translate_init_invar(ts_.init_constraints(), init_out_);
    translate_init_invar(ts_.invar_constraints(), invar_out_);
    for (Expr c : ts_.trans_constraints()) {
      if (expired()) return fail_all();
      translate_trans(c);
    }
    for (Expr c : ts_.param_constraints()) pconstr_out_.push_back(c);
    return blocked.empty();
  }

  std::set<std::size_t> blocked;

  [[nodiscard]] Abstraction assemble() const {
    Abstraction out;
    ts::TransitionSystem q;
    for (Expr v : ts_.vars())
      if (!member_of_.contains(v.var())) q.add_var(v);
    for (const Ctx& ctx : ctxs_)
      for (Expr c : ctx.counters) q.add_var(c);
    for (Expr p : ts_.params()) q.add_param(p);
    for (Expr e : init_out_)
      if (!e.is_true()) q.add_init(e);
    for (Expr e : trans_out_)
      if (!e.is_true()) q.add_trans(e);
    for (Expr e : invar_out_)
      if (!e.is_true()) q.add_invar(e);
    for (const Ctx& ctx : ctxs_)
      q.add_invar(expr::mk_eq(expr::mk_add(ctx.counters),
                              expr::int_const(static_cast<std::int64_t>(ctx.size()))));
    for (Expr e : pconstr_out_) q.add_param_constraint(e);
    q.validate();
    out.system = std::move(q);
    for (Expr a : atoms_) out.properties.push_back(ltl::G(ltl::atom(a)));
    for (const Ctx& ctx : ctxs_) {
      OrbitAbstraction rec;
      rec.orbit = ctx.orbit;
      rec.domain = ctx.domain;
      rec.counters = ctx.counters;
      rec.init_index = ctx.init_index;
      rec.strengthened_guard = ctx.strengthened_guard;
      rec.threshold = ctx.threshold;
      rec.justification = ctx.notes;
      rec.justification.insert(
          rec.justification.begin(),
          std::to_string(ctx.size()) + " interchangeable vars ('" +
              ctx.orbit.members.front().var_name() + "', ...) collapsed to " +
              std::to_string(ctx.counters.size()) + " counters");
      out.orbits.push_back(std::move(rec));
      out.vars_collapsed += ctx.size();
    }
    return out;
  }

 private:
  // --- bookkeeping -----------------------------------------------------------

  bool expired() const { return options_.deadline.expired_or_cancelled(); }

  bool fail_all() {
    for (std::size_t i = 0; i < ctxs_.size(); ++i) blocked.insert(i);
    return false;
  }

  void block(std::size_t orbit, const char* why = "?") {
    if (std::getenv("VERDICT_ABS_DEBUG") && !blocked.contains(orbit))
      std::fprintf(stderr, "abs: blocked orbit %zu (%s): %s\n", orbit,
                   ctxs_[orbit].orbit.members.front().var_name().c_str(), why);
    blocked.insert(orbit);
  }

  void block_mask(std::uint64_t mask, const char* why = "?") {
    while (mask) {
      const int o = std::countr_zero(mask);
      block(static_cast<std::size_t>(o), why);
      mask &= mask - 1;
    }
  }

  void block_raw(Expr e) {
    const NodeInfo& ni = info(e);
    block_mask(ni.cur_mask | ni.next_mask, "raw member in atom");
  }

  const NodeInfo& info(Expr e) {
    auto it = info_.find(e.id());
    if (it != info_.end()) return it->second;
    NodeInfo ni;
    if (e.kind() == Kind::kVariable) {
      const auto m = member_of_.find(e.var());
      if (m != member_of_.end()) {
        ni.cur_mask = 1ULL << m->second.first;
        ni.members.push_back(m->second);
      } else {
        ni.other_cur = true;
      }
    } else if (e.kind() == Kind::kNext) {
      const auto m = member_of_.find(e.kids()[0].var());
      if (m != member_of_.end()) ni.next_mask = 1ULL << m->second.first;
    } else {
      for (Expr k : e.kids()) {
        const NodeInfo& ki = info(k);
        ni.cur_mask |= ki.cur_mask;
        ni.next_mask |= ki.next_mask;
        ni.other_cur |= ki.other_cur;
        ni.overflow |= ki.overflow;
        for (const auto& m : ki.members) {
          if (std::find(ni.members.begin(), ni.members.end(), m) != ni.members.end())
            continue;
          if (ni.members.size() >= kMemberCap) {
            ni.overflow = true;
            break;
          }
          ni.members.push_back(m);
        }
      }
    }
    return info_.emplace(e.id(), std::move(ni)).first->second;
  }

  // --- count-shape rewrite ---------------------------------------------------

  Expr rebuild(Expr e, std::span<const Expr> kids) {
    switch (e.kind()) {
      case Kind::kNot:
        return expr::mk_not(kids[0]);
      case Kind::kAnd:
        return expr::mk_and(kids);
      case Kind::kOr:
        return expr::mk_or(kids);
      case Kind::kIte:
        return expr::ite(kids[0], kids[1], kids[2]);
      case Kind::kEq:
        return expr::mk_eq(kids[0], kids[1]);
      case Kind::kLt:
        return expr::mk_lt(kids[0], kids[1]);
      case Kind::kLe:
        return expr::mk_le(kids[0], kids[1]);
      case Kind::kAdd:
        return expr::mk_add(kids);
      case Kind::kMul:
        return expr::mk_mul(kids);
      case Kind::kDiv:
        return expr::mk_div(kids[0], kids[1]);
      case Kind::kToReal:
        return expr::to_real(kids[0]);
      default:
        return e;
    }
  }

  /// Bottom-up rewrite replacing complete per-orbit count shapes
  ///   sum_i ite(t(v_i), 1, 0)  ->  sum_d ite(t[d], c_d, 0)
  /// (t may mention non-member variables; t[d] then stays a residue formula
  /// shared by all members with value d, which keeps the rewrite exact).
  Expr rewrite(Expr e) {
    const auto it = rw_memo_.find(e.id());
    if (it != rw_memo_.end()) return it->second;
    Expr out = e;
    switch (e.kind()) {
      case Kind::kVariable:
      case Kind::kConstant:
      case Kind::kNext:
        break;
      default: {
        std::vector<Expr> kids(e.kids().begin(), e.kids().end());
        bool changed = false;
        for (Expr& k : kids) {
          const Expr r = rewrite(k);
          changed |= !r.is(k);
          k = r;
        }
        if (e.kind() == Kind::kAdd)
          out = rewrite_add(kids);
        else if (changed)
          out = rebuild(e, kids);
        break;
      }
    }
    rw_memo_.emplace(e.id(), out);
    return out;
  }

  Expr rewrite_add(std::vector<Expr>& kids) {
    struct Bucket {
      Expr tpl;
      std::vector<char> seen;
      std::size_t hits = 0;
      bool dup = false;
      std::vector<std::size_t> positions;
    };
    std::map<std::pair<std::size_t, std::uint32_t>, Bucket> buckets;
    for (std::size_t p = 0; p < kids.size(); ++p) {
      const Expr k = kids[p];
      if (k.kind() != Kind::kIte) continue;
      if (!is_int_const(k.kids()[1], 1) || !is_int_const(k.kids()[2], 0)) continue;
      const Expr cond = k.kids()[0];
      const NodeInfo& ni = info(cond);
      if (ni.next_mask != 0 || ni.overflow || ni.members.size() != 1) continue;
      const auto [orbit, index] = ni.members[0];
      Ctx& ctx = ctxs_[orbit];
      const Expr tpl = expr::substitute(
          cond, expr::Substitution{{ctx.orbit.members[index].var(), ctx.ph}});
      Bucket& b = buckets[{orbit, tpl.id()}];
      if (b.seen.empty()) {
        b.tpl = tpl;
        b.seen.assign(ctx.size(), 0);
      }
      if (b.seen[index]) b.dup = true;
      b.seen[index] = 1;
      ++b.hits;
      b.positions.push_back(p);
    }
    std::vector<char> replaced(kids.size(), 0);
    std::vector<Expr> extra;
    for (auto& [key, b] : buckets) {
      const Ctx& ctx = ctxs_[key.first];
      if (b.dup || b.hits != ctx.size()) continue;
      for (std::size_t p : b.positions) replaced[p] = 1;
      for (std::size_t d = 0; d < ctx.domain.size(); ++d) {
        const Expr cond_d = expr::substitute(
            b.tpl, expr::Substitution{{ctx.ph.var(), ctx.domain_consts[d]}});
        extra.push_back(expr::ite(cond_d, ctx.counters[d], expr::int_const(0)));
      }
    }
    std::vector<Expr> out;
    for (std::size_t p = 0; p < kids.size(); ++p)
      if (!replaced[p]) out.push_back(kids[p]);
    out.insert(out.end(), extra.begin(), extra.end());
    return expr::mk_add(out);
  }

  // --- property strengthening ------------------------------------------------

  void find_init_values() {
    // A uniform init family  AND_i (v_i == d0)  fixes the orbit's initial
    // value; the deviation count "members away from d0" is what thresholds
    // are measured against.
    for (Ctx& ctx : ctxs_) {
      std::vector<char> constrained(ctx.size(), 0);
      std::set<std::size_t> all;
      for (std::size_t d = 0; d < ctx.domain.size(); ++d) all.insert(d);
      std::vector<std::set<std::size_t>> per_member(ctx.size(), all);
      for (Expr c : ts_.init_constraints()) {
        const NodeInfo& ni = info(c);
        if (ni.other_cur || ni.overflow || ni.members.size() != 1) continue;
        const auto [orbit, index] = ni.members[0];
        if (&ctxs_[orbit] != &ctx) continue;
        const Expr tpl = expr::substitute(
            c, expr::Substitution{{ctx.orbit.members[index].var(), ctx.ph}});
        std::set<std::size_t> ok;
        for (std::size_t d = 0; d < ctx.domain.size(); ++d) {
          const Expr t = expr::substitute(
              tpl, expr::Substitution{{ctx.ph.var(), ctx.domain_consts[d]}});
          if (t.is_true()) ok.insert(d);
        }
        std::set<std::size_t> inter;
        std::set_intersection(per_member[index].begin(), per_member[index].end(),
                              ok.begin(), ok.end(), std::inserter(inter, inter.begin()));
        per_member[index] = std::move(inter);
        constrained[index] = 1;
      }
      bool uniform = true;
      std::optional<std::size_t> d0;
      for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (!constrained[i] || per_member[i].size() != 1) {
          uniform = false;
          break;
        }
        if (!d0) d0 = *per_member[i].begin();
        if (*per_member[i].begin() != *d0) {
          uniform = false;
          break;
        }
      }
      if (uniform) ctx.init_index = d0;
    }
  }

  /// Polarity of every node inside one atom: 1 positive-only, -1 negative-
  /// only, 0 mixed/unknown. Numeric contexts track arithmetic monotonicity
  /// (Le/Lt sides, ite with ordered constant arms).
  void polarity_walk(Expr e, int pol, std::unordered_map<std::uint32_t, int>& pmap,
                     std::set<std::pair<std::uint32_t, int>>& seen) {
    if (!seen.insert({e.id(), pol}).second) return;
    const auto [it, fresh] = pmap.try_emplace(e.id(), pol);
    if (!fresh && it->second != pol) it->second = 0;
    switch (e.kind()) {
      case Kind::kNot:
        polarity_walk(e.kids()[0], -pol, pmap, seen);
        break;
      case Kind::kAnd:
      case Kind::kOr:
      case Kind::kAdd:
      case Kind::kToReal:
        for (Expr k : e.kids()) polarity_walk(k, pol, pmap, seen);
        break;
      case Kind::kIte: {
        const Expr t = e.kids()[1];
        const Expr f = e.kids()[2];
        int cond_pol = 0;
        if (t.is_constant() && f.is_constant() && t.type().is_int() &&
            f.type().is_int()) {
          const auto tv = std::get<std::int64_t>(t.constant_value());
          const auto fv = std::get<std::int64_t>(f.constant_value());
          cond_pol = tv > fv ? pol : tv < fv ? -pol : 0;
        }
        polarity_walk(e.kids()[0], cond_pol, pmap, seen);
        polarity_walk(t, pol, pmap, seen);
        polarity_walk(f, pol, pmap, seen);
        break;
      }
      case Kind::kLt:
      case Kind::kLe:
        polarity_walk(e.kids()[0], -pol, pmap, seen);
        polarity_walk(e.kids()[1], pol, pmap, seen);
        break;
      case Kind::kMul: {
        std::size_t nonconst = 0;
        std::int64_t sign = 1;
        for (Expr k : e.kids()) {
          if (k.is_constant() && k.type().is_int()) {
            if (std::get<std::int64_t>(k.constant_value()) < 0) sign = -sign;
          } else {
            ++nonconst;
          }
        }
        const int kid_pol = nonconst <= 1 ? (sign > 0 ? pol : -pol) : 0;
        for (Expr k : e.kids())
          if (!k.is_constant()) polarity_walk(k, kid_pol, pmap, seen);
        break;
      }
      case Kind::kEq:
      case Kind::kDiv:
        for (Expr k : e.kids()) polarity_walk(k, 0, pmap, seen);
        break;
      default:
        break;
    }
  }

  /// Pin shapes and count comparisons are handled exactly elsewhere; only
  /// the rest (reach-style formulas) are worth threshold-strengthening.
  static bool plain_shape(Expr e) {
    if (e.kind() == Kind::kVariable || e.is_constant()) return true;
    // Pins keep their negation plain too: !(s == 1) is count-rewritable and
    // must never be swallowed by a threshold guard.
    if (e.kind() == Kind::kNot) return plain_shape(e.kids()[0]);
    if (e.kind() == Kind::kEq || e.kind() == Kind::kLt || e.kind() == Kind::kLe) {
      for (Expr k : e.kids())
        if (k.kind() == Kind::kVariable || k.is_constant() || k.kind() == Kind::kAdd)
          return true;
    }
    return false;
  }

  /// The largest B in [0, N] with
  ///   unsat( atmost(B, m_i != d0)  /\  not AND(candidates) )
  /// i.e. "any B-or-fewer deviations from the initial value keep every
  /// strengthened subformula true" (for reachability: B below the min cut).
  /// Validity is downward closed in B, so the probe doubles from 0 until the
  /// first sat, then bisects between the last unsat bound and the sat
  /// model's deviation count d (that model refutes every B >= d). A probe
  /// whose budget is already gone or that answers unknown ends the search
  /// with the last proven bound; nullopt when none was proven.
  std::optional<std::int64_t> largest_threshold(const Ctx& ctx, const std::vector<Expr>& cands) {
    const Expr d0c = ctx.domain_consts[*ctx.init_index];
    const expr::Value& d0 = ctx.domain[*ctx.init_index];
    std::vector<Expr> deviates;
    for (Expr m : ctx.orbit.members) deviates.push_back(expr::mk_not(expr::mk_eq(m, d0c)));

    smt::Solver solver;
    for (Expr m : ctx.orbit.members) {
      const Expr range = ts::range_constraint(m);
      if (!range.is_true()) solver.add(range, 0);
    }
    solver.add(expr::mk_not(expr::all_of(cands)), 0);
    const auto n = static_cast<std::int64_t>(ctx.size());
    std::optional<std::int64_t> proven;
    std::int64_t refuted = n + 1;  // smallest bound known to admit a violation
    std::int64_t b = 0;
    while (true) {
      const util::Deadline probe_deadline =
          options_.deadline.clipped_to(options_.strengthen_query_seconds);
      if (probe_deadline.expired_or_cancelled()) break;
      obs::count("abs.threshold_probes");
      solver.push();
      solver.add(solver.at_most(deviates, 0, static_cast<unsigned>(b)));
      const smt::CheckResult res = solver.check(probe_deadline);
      if (res == smt::CheckResult::kSat) {
        std::int64_t d = 0;
        for (Expr m : ctx.orbit.members) d += solver.value_of(m, 0) != d0 ? 1 : 0;
        refuted = d;
      }
      solver.pop();
      if (res == smt::CheckResult::kUnknown) break;
      if (res == smt::CheckResult::kUnsat) proven = b;
      const std::int64_t lo = proven.value_or(-1);
      if (lo + 1 >= refuted) break;
      b = refuted > n ? std::min(n, b == 0 ? 1 : 2 * b) : lo + (refuted - lo) / 2;
    }
    return proven;
  }

  void strengthen_atoms() {
    // Per orbit: subformulas to strengthen (positive polarity) across all
    // atoms, plus per-atom replacement maps.
    std::vector<std::vector<Expr>> pos_cands(ctxs_.size());
    std::vector<std::unordered_map<std::uint32_t, int>> pmaps(atoms_.size());
    std::vector<std::vector<std::pair<Expr, int>>> atom_sites(atoms_.size());
    for (std::size_t a = 0; a < atoms_.size(); ++a) {
      std::set<std::pair<std::uint32_t, int>> seen;
      polarity_walk(atoms_[a], 1, pmaps[a], seen);
      std::unordered_set<std::uint32_t> visited;
      const std::function<void(Expr)> collect = [&](Expr e) {
        if (!visited.insert(e.id()).second) return;
        const NodeInfo& ni = info(e);
        if (e.type().is_bool() && !plain_shape(e) && ni.next_mask == 0 &&
            ni.cur_mask != 0) {
          const int pol = pmaps[a][e.id()];
          if (pol == -1) {
            // Negative-only: weakening to `true` strengthens the atom.
            atom_sites[a].push_back({e, -1});
            return;
          }
          if (pol == 1 && options_.strengthen && !ni.other_cur &&
              std::popcount(ni.cur_mask) == 1) {
            const auto orbit = static_cast<std::size_t>(std::countr_zero(ni.cur_mask));
            if (ctxs_[orbit].init_index) {
              pos_cands[orbit].push_back(e);
              atom_sites[a].push_back({e, 1});
              return;
            }
          }
        }
        for (Expr k : e.kids()) collect(k);
      };
      collect(atoms_[a]);
    }

    for (std::size_t o = 0; o < ctxs_.size(); ++o) {
      Ctx& ctx = ctxs_[o];
      if (pos_cands[o].empty()) continue;
      std::sort(pos_cands[o].begin(), pos_cands[o].end(),
                [](Expr x, Expr y) { return x.id() < y.id(); });
      pos_cands[o].erase(std::unique(pos_cands[o].begin(), pos_cands[o].end(),
                                     [](Expr x, Expr y) { return x.is(y); }),
                         pos_cands[o].end());
      const std::optional<std::int64_t> best = largest_threshold(ctx, pos_cands[o]);
      if (!best) {
        // No safe threshold: leave the subformulas raw; the residual check
        // will block this orbit if an atom still mentions its members.
        continue;
      }
      std::vector<Expr> dev_counters;
      for (std::size_t d = 0; d < ctx.domain.size(); ++d)
        if (d != *ctx.init_index) dev_counters.push_back(ctx.counters[d]);
      ctx.strengthened_guard = expr::mk_le(expr::mk_add(dev_counters), expr::int_const(*best));
      ctx.threshold = *best;
      ctx.notes.push_back("property strengthened: " + std::to_string(pos_cands[o].size()) +
                          " member-only subformula(s) replaced by deviation <= " +
                          std::to_string(*best));
      for (Expr s : pos_cands[o]) repl_.emplace(s.id(), ctx.strengthened_guard);
    }

    // Apply the per-atom replacements (positive -> threshold guard,
    // negative-only -> true), then the count rewrite runs on the result.
    for (std::size_t a = 0; a < atoms_.size(); ++a) {
      std::unordered_map<std::uint32_t, Expr> local;
      for (const auto& [site, dir] : atom_sites[a]) {
        if (dir == -1) {
          local.emplace(site.id(), expr::tru());
        } else {
          const auto it = repl_.find(site.id());
          if (it != repl_.end()) local.emplace(site.id(), it->second);
        }
      }
      if (local.empty()) continue;
      std::unordered_map<std::uint32_t, Expr> memo;
      const std::function<Expr(Expr)> apply = [&](Expr e) -> Expr {
        const auto hit = local.find(e.id());
        if (hit != local.end()) return hit->second;
        const auto m = memo.find(e.id());
        if (m != memo.end()) return m->second;
        Expr out = e;
        if (e.kind() != Kind::kVariable && e.kind() != Kind::kNext && !e.is_constant()) {
          std::vector<Expr> kids(e.kids().begin(), e.kids().end());
          bool changed = false;
          for (Expr& k : kids) {
            const Expr r = apply(k);
            changed |= !r.is(k);
            k = r;
          }
          if (changed) out = rebuild(e, kids);
        }
        memo.emplace(e.id(), out);
        return out;
      };
      atoms_[a] = apply(atoms_[a]);
    }
  }

  // --- facet translation -----------------------------------------------------

  /// init/invar: count-rewritten constraints pass through when member-free;
  /// single-member constraints form per-template families that must cover
  /// the whole orbit and translate to  t[d] \/ c_d = 0  per domain value.
  void translate_init_invar(std::span<const Expr> constraints, std::vector<Expr>& out) {
    struct Family {
      Expr tpl;
      std::vector<char> seen;
      std::size_t hits = 0;
    };
    std::map<std::pair<std::size_t, std::uint32_t>, Family> families;
    for (Expr c : constraints) {
      const Expr r = rewrite(c);
      const NodeInfo& ni = info(r);
      if (ni.cur_mask == 0 && ni.next_mask == 0) {
        out.push_back(r);
        continue;
      }
      if (ni.next_mask == 0 && !ni.overflow && ni.members.size() == 1 &&
          std::popcount(ni.cur_mask) == 1) {
        const auto [orbit, index] = ni.members[0];
        Ctx& ctx = ctxs_[orbit];
        const Expr tpl = expr::substitute(
            r, expr::Substitution{{ctx.orbit.members[index].var(), ctx.ph}});
        Family& f = families[{orbit, tpl.id()}];
        if (f.seen.empty()) {
          f.tpl = tpl;
          f.seen.assign(ctx.size(), 0);
        }
        if (!f.seen[index]) {
          f.seen[index] = 1;
          ++f.hits;
        }
        continue;
      }
      block_mask(ni.cur_mask | ni.next_mask, "init/invar not single-member");
    }
    for (const auto& [key, f] : families) {
      const Ctx& ctx = ctxs_[key.first];
      if (f.hits != ctx.size()) {
        block(key.first, "init/invar family incomplete");
        continue;
      }
      for (std::size_t d = 0; d < ctx.domain.size(); ++d) {
        const Expr t = expr::substitute(
            f.tpl, expr::Substitution{{ctx.ph.var(), ctx.domain_consts[d]}});
        const NodeInfo& ti = info(t);
        if (ti.cur_mask != 0 || ti.next_mask != 0) {
          block(key.first, "family template residue");
          break;
        }
        const Expr constraint =
            expr::mk_or({t, expr::mk_eq(ctx.counters[d], expr::int_const(0))});
        if (!constraint.is_true()) out.push_back(constraint);
      }
    }
  }

  std::vector<Expr> counters_keep(const Ctx& ctx) const {
    std::vector<Expr> out;
    for (Expr c : ctx.counters) out.push_back(expr::mk_eq(expr::next(c), c));
    return out;
  }

  /// next(c_d0) = c_d0 - 1, next(c_d1) = c_d1 + 1, rest keep.
  std::vector<Expr> counters_move(const Ctx& ctx, std::size_t d0, std::size_t d1) const {
    std::vector<Expr> out;
    for (std::size_t d = 0; d < ctx.counters.size(); ++d) {
      Expr rhs = ctx.counters[d];
      if (d == d0) rhs = expr::mk_add({rhs, expr::int_const(-1)});
      if (d == d1) rhs = expr::mk_add({rhs, expr::int_const(1)});
      out.push_back(expr::mk_eq(expr::next(ctx.counters[d]), rhs));
    }
    return out;
  }

  void translate_trans(Expr constraint) {
    std::vector<std::vector<Expr>> disjuncts;
    if (!detail::flatten_disjuncts(constraint, disjuncts)) {
      disjuncts.clear();
      disjuncts.push_back({constraint});
    }
    std::vector<Expr> abstract_disjuncts;
    for (const std::vector<Expr>& conjuncts : disjuncts) {
      struct OrbitUse {
        std::map<std::size_t, std::size_t> pins;     // member -> domain value
        std::map<std::size_t, std::size_t> assigns;  // member -> domain value
        std::set<std::size_t> keeps;
        bool touched_next = false;
      };
      std::vector<OrbitUse> use(ctxs_.size());
      std::vector<Expr> passthrough;
      const auto member_lookup = [&](Expr e) -> const std::pair<std::size_t, std::size_t>* {
        if (e.kind() != Kind::kVariable) return nullptr;
        const auto it = member_of_.find(e.var());
        return it == member_of_.end() ? nullptr : &it->second;
      };
      const auto domain_index = [&](const Ctx& ctx, Expr value) -> std::optional<std::size_t> {
        if (!value.is_constant()) return std::nullopt;
        for (std::size_t d = 0; d < ctx.domain_consts.size(); ++d)
          if (ctx.domain_consts[d].is(value)) return d;
        return std::nullopt;
      };
      const auto generic = [&](Expr c) {
        const Expr r = rewrite(c);
        const NodeInfo& ni = info(r);
        if (ni.cur_mask != 0 || ni.next_mask != 0) {
          if (std::getenv("VERDICT_ABS_DEBUG"))
            std::fprintf(stderr, "abs: raw conjunct: %.300s\n", r.str().c_str());
          block_mask(ni.cur_mask | ni.next_mask, "raw member in trans conjunct");
          return;
        }
        passthrough.push_back(r);
      };
      // Boolean assignments canonicalize away their Eq: next(v) means
      // v := true and !next(v) means v := false.
      const auto bool_assign = [&](Expr target_next, Expr value) -> bool {
        const auto* m = member_lookup(target_next.kids()[0]);
        if (m == nullptr) return false;
        OrbitUse& u = use[m->first];
        u.touched_next = true;
        if (const auto d = domain_index(ctxs_[m->first], value))
          u.assigns[m->second] = *d;
        else
          block(m->first, "bool assign outside domain");
        return true;
      };
      for (Expr c : conjuncts) {
        if (c.kind() == Kind::kNext) {
          if (bool_assign(c, expr::tru())) continue;
          generic(c);
          continue;
        }
        if (c.kind() == Kind::kNot && c.kids()[0].kind() == Kind::kNext) {
          if (bool_assign(c.kids()[0], expr::fls())) continue;
          generic(c);
          continue;
        }
        if (c.kind() == Kind::kEq) {
          const Expr a = c.kids()[0];
          const Expr b = c.kids()[1];
          const bool an = a.kind() == Kind::kNext;
          const bool bn = b.kind() == Kind::kNext;
          if (an != bn) {
            const Expr target = an ? a : b;
            const Expr rhs = an ? b : a;
            const auto* m = member_lookup(target.kids()[0]);
            if (m != nullptr) {
              OrbitUse& u = use[m->first];
              u.touched_next = true;
              if (rhs.is(target.kids()[0])) {
                u.keeps.insert(m->second);
              } else if (const auto d = domain_index(ctxs_[m->first], rhs)) {
                u.assigns[m->second] = *d;
              } else {
                block(m->first, "assign rhs not const/keep");
              }
              continue;
            }
            generic(c);
            continue;
          }
          // Pin: member == constant.
          const auto* ma = member_lookup(a);
          const auto* mb = member_lookup(b);
          if (ma != nullptr && b.is_constant()) {
            if (const auto d = domain_index(ctxs_[ma->first], b))
              use[ma->first].pins[ma->second] = *d;
            else
              block(ma->first, "pin const outside domain");
            continue;
          }
          if (mb != nullptr && a.is_constant()) {
            if (const auto d = domain_index(ctxs_[mb->first], a))
              use[mb->first].pins[mb->second] = *d;
            else
              block(mb->first, "pin const outside domain");
            continue;
          }
          generic(c);
          continue;
        }
        if (c.kind() == Kind::kVariable) {
          if (const auto* m = member_lookup(c)) {
            if (const auto d = domain_index(ctxs_[m->first], expr::tru()))
              use[m->first].pins[m->second] = *d;
            else
              block(m->first, "bool pin outside domain");
            continue;
          }
          generic(c);
          continue;
        }
        if (c.kind() == Kind::kNot && c.kids()[0].kind() == Kind::kVariable) {
          if (const auto* m = member_lookup(c.kids()[0])) {
            if (const auto d = domain_index(ctxs_[m->first], expr::fls()))
              use[m->first].pins[m->second] = *d;
            else
              block(m->first, "bool pin outside domain");
            continue;
          }
          generic(c);
          continue;
        }
        generic(c);
      }

      std::vector<Expr> abstract_conjuncts = std::move(passthrough);
      for (std::size_t o = 0; o < ctxs_.size(); ++o) {
        if (blocked.contains(o)) continue;
        const Ctx& ctx = ctxs_[o];
        OrbitUse& u = use[o];
        // "At least this many members currently hold d" from guard pins;
        // distinct members pinned to the same value add up.
        std::vector<std::int64_t> need(ctx.domain.size(), 0);
        for (const auto& [member, d] : u.pins) ++need[d];
        for (std::size_t d = 0; d < need.size(); ++d)
          if (need[d] > 0)
            abstract_conjuncts.push_back(
                expr::mk_le(expr::int_const(need[d]), ctx.counters[d]));
        if (!u.touched_next) continue;  // pure guard w.r.t. this orbit
        if (u.keeps.size() + u.assigns.size() != ctx.size()) {
          block(o, "partial next coverage");
          continue;
        }
        if (u.assigns.empty()) {
          const auto keeps = counters_keep(ctx);
          abstract_conjuncts.insert(abstract_conjuncts.end(), keeps.begin(), keeps.end());
          continue;
        }
        if (u.assigns.size() > 1) {
          block(o, "multiple assigns in one disjunct");
          continue;
        }
        const auto [member, d1] = *u.assigns.begin();
        const auto pin = u.pins.find(member);
        if (pin != u.pins.end()) {
          const std::size_t d0 = pin->second;
          const auto updates =
              d0 == d1 ? counters_keep(ctx) : counters_move(ctx, d0, d1);
          abstract_conjuncts.insert(abstract_conjuncts.end(), updates.begin(),
                                    updates.end());
          continue;
        }
        // Unpinned pre-value: one branch per possible source value. The
        // acting member is distinct from every pinned (kept) member, hence
        // the +1 over the pin requirement.
        std::vector<Expr> branches;
        for (std::size_t d0 = 0; d0 < ctx.domain.size(); ++d0) {
          std::vector<Expr> branch{
              expr::mk_le(expr::int_const(need[d0] + 1), ctx.counters[d0])};
          const auto updates =
              d0 == d1 ? counters_keep(ctx) : counters_move(ctx, d0, d1);
          branch.insert(branch.end(), updates.begin(), updates.end());
          branches.push_back(expr::mk_and(branch));
        }
        abstract_conjuncts.push_back(expr::mk_or(branches));
      }
      abstract_disjuncts.push_back(expr::mk_and(abstract_conjuncts));
    }
    trans_out_.push_back(expr::mk_or(abstract_disjuncts));
  }

  const ts::TransitionSystem& ts_;
  const AbstractionOptions& options_;
  std::vector<Ctx> ctxs_;
  std::vector<Expr> atoms_;
  std::unordered_map<expr::VarId, std::pair<std::size_t, std::size_t>> member_of_;
  std::unordered_map<std::uint32_t, NodeInfo> info_;
  std::unordered_map<std::uint32_t, Expr> rw_memo_;
  std::unordered_map<std::uint32_t, Expr> repl_;
  std::vector<Expr> init_out_;
  std::vector<Expr> invar_out_;
  std::vector<Expr> trans_out_;
  std::vector<Expr> pconstr_out_;
};

}  // namespace

std::optional<Abstraction> abstract_system(const ts::TransitionSystem& ts,
                                           std::span<const ltl::Formula> properties,
                                           const AbstractionOptions& options) {
  if (properties.empty()) return std::nullopt;
  for (const ltl::Formula& f : properties)
    if (!ltl::is_invariant_property(f)) return std::nullopt;
  std::vector<Expr> atoms;
  atoms.reserve(properties.size());
  for (const ltl::Formula& f : properties) atoms.push_back(ltl::invariant_atom(f));

  std::vector<Orbit> active = detect_orbits(ts, options.symmetry);
  std::erase_if(active, [&](const Orbit& o) {
    const expr::Type t = o.members.front().type();
    const std::size_t domain = t.is_bool() ? 2 : static_cast<std::size_t>(t.hi - t.lo + 1);
    return domain > options.max_domain || domain >= o.members.size();
  });

  while (!active.empty()) {
    if (options.deadline.expired_or_cancelled()) return std::nullopt;
    Builder builder(ts, atoms, options, active);
    if (builder.run()) {
      Abstraction out = builder.assemble();
      obs::count("abs.orbits_found", out.orbits.size());
      obs::count("abs.vars_collapsed", out.vars_collapsed);
      return out;
    }
    if (builder.blocked.empty()) return std::nullopt;
    std::vector<Orbit> next;
    for (std::size_t i = 0; i < active.size(); ++i)
      if (!builder.blocked.contains(i) && i < 64) next.push_back(active[i]);
    if (next.size() == active.size()) return std::nullopt;
    active = std::move(next);
  }
  return std::nullopt;
}

std::optional<Abstraction> abstract_system(const ts::TransitionSystem& ts,
                                           const ltl::Formula& property,
                                           const AbstractionOptions& options) {
  return abstract_system(ts, std::span<const ltl::Formula>(&property, 1), options);
}

}  // namespace verdict::abs
