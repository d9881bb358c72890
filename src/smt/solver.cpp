#include "smt/solver.h"

#include <atomic>
#include <climits>
#include <stdexcept>

#include "obs/trace.h"
#include "util/log.h"

namespace verdict::smt {

using expr::Expr;
using expr::Kind;
using expr::Type;
using expr::TypeKind;
using expr::Value;

namespace {
std::atomic<std::size_t> g_solver_serial{0};
std::atomic<bool> g_translate_memo{true};

const char* check_result_name(CheckResult r) {
  switch (r) {
    case CheckResult::kSat:
      return "sat";
    case CheckResult::kUnsat:
      return "unsat";
    default:
      return "unknown";
  }
}
}  // namespace

void set_translate_memo(bool enabled) {
  g_translate_memo.store(enabled, std::memory_order_relaxed);
}

bool translate_memo_enabled() {
  return g_translate_memo.load(std::memory_order_relaxed);
}

Solver::Solver() : ctx_(), solver_(ctx_) {
  serial_ = g_solver_serial.fetch_add(1, std::memory_order_relaxed);
  obs::count("smt.solvers_created");
}

void Solver::set_rigid(const std::set<expr::VarId>& rigid) {
  if (!cache_.empty())
    throw std::logic_error("Solver::set_rigid must be called before any translation");
  rigid_ = rigid;
}

z3::sort Solver::sort_of(const Type& type) {
  switch (type.kind) {
    case TypeKind::kBool:
      return ctx_.bool_sort();
    case TypeKind::kInt:
      return ctx_.int_sort();
    case TypeKind::kReal:
      return ctx_.real_sort();
  }
  throw std::logic_error("sort_of: bad type");
}

z3::expr Solver::constant_for(Expr var, int frame) {
  const std::string name = rigid_.contains(var.var())
                               ? var.var_name() + "!p"
                               : var.var_name() + "@" + std::to_string(frame);
  const auto it = constants_.find(name);
  if (it != constants_.end()) return it->second;
  z3::expr c = ctx_.constant(name.c_str(), sort_of(var.type()));
  constants_.emplace(name, c);
  return c;
}

bool Solver::frame_invariant(Expr e) {
  switch (e.kind()) {
    case Kind::kConstant:
      return true;
    case Kind::kVariable:
      return rigid_.contains(e.var());
    case Kind::kNext:
      return e.kids()[0].is_variable() && rigid_.contains(e.kids()[0].var());
    default:
      break;
  }
  const auto it = invariant_memo_.find(e.id());
  if (it != invariant_memo_.end()) return it->second;
  bool invariant = true;
  for (Expr k : e.kids())
    if (!frame_invariant(k)) {
      invariant = false;
      break;
    }
  invariant_memo_.emplace(e.id(), invariant);
  return invariant;
}

z3::expr Solver::translate(Expr e, int frame) {
  if (!e.valid()) throw std::invalid_argument("Solver::translate: invalid expression");
  // Frames are >= 0 everywhere (next() bumps to frame + 1), so the non-
  // invariant keys xor in frame + 2 >= 2 and the sentinel slot 0 is free for
  // cross-frame entries.
  const bool invariant = translate_memo_enabled() && frame_invariant(e);
  const std::uint64_t key =
      invariant ? static_cast<std::uint64_t>(e.id()) << 20
                : (static_cast<std::uint64_t>(e.id()) << 20) ^
                      static_cast<std::uint64_t>(frame + 2);
  static std::atomic<std::uint64_t>& memo_hits = obs::counter("smt.translate_memo.hit");
  static std::atomic<std::uint64_t>& memo_misses = obs::counter("smt.translate_memo.miss");
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    if (invariant) memo_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  if (invariant) memo_misses.fetch_add(1, std::memory_order_relaxed);

  z3::expr out(ctx_);
  switch (e.kind()) {
    case Kind::kConstant: {
      const Value& v = e.constant_value();
      if (std::holds_alternative<bool>(v)) {
        out = ctx_.bool_val(std::get<bool>(v));
      } else if (std::holds_alternative<std::int64_t>(v)) {
        out = ctx_.int_val(static_cast<std::int64_t>(std::get<std::int64_t>(v)));
      } else {
        const util::Rational& r = std::get<util::Rational>(v);
        out = ctx_.real_val(r.num(), r.den());
      }
      break;
    }
    case Kind::kVariable:
      out = constant_for(e, frame);
      break;
    case Kind::kNext:
      out = constant_for(e.kids()[0], frame + 1);
      break;
    case Kind::kNot:
      out = !translate(e.kids()[0], frame);
      break;
    case Kind::kAnd: {
      z3::expr_vector kids(ctx_);
      for (Expr k : e.kids()) kids.push_back(translate(k, frame));
      out = z3::mk_and(kids);
      break;
    }
    case Kind::kOr: {
      z3::expr_vector kids(ctx_);
      for (Expr k : e.kids()) kids.push_back(translate(k, frame));
      out = z3::mk_or(kids);
      break;
    }
    case Kind::kIte:
      out = z3::ite(translate(e.kids()[0], frame), translate(e.kids()[1], frame),
                    translate(e.kids()[2], frame));
      break;
    case Kind::kEq:
      out = translate(e.kids()[0], frame) == translate(e.kids()[1], frame);
      break;
    case Kind::kLt:
      out = translate(e.kids()[0], frame) < translate(e.kids()[1], frame);
      break;
    case Kind::kLe:
      out = translate(e.kids()[0], frame) <= translate(e.kids()[1], frame);
      break;
    case Kind::kAdd: {
      out = translate(e.kids()[0], frame);
      for (std::size_t i = 1; i < e.kids().size(); ++i) out = out + translate(e.kids()[i], frame);
      break;
    }
    case Kind::kMul: {
      out = translate(e.kids()[0], frame);
      for (std::size_t i = 1; i < e.kids().size(); ++i) out = out * translate(e.kids()[i], frame);
      break;
    }
    case Kind::kDiv:
      out = translate(e.kids()[0], frame) / translate(e.kids()[1], frame);
      break;
    case Kind::kToReal: {
      z3::expr inner = translate(e.kids()[0], frame);
      out = z3::expr(ctx_, Z3_mk_int2real(ctx_, inner));
      break;
    }
    default:
      throw std::logic_error("Solver::translate: unhandled kind");
  }
  cache_.emplace(key, out);
  return out;
}

void Solver::add(Expr e, int frame) {
  solver_.add(translate(e, frame));
  ++num_assertions_;
}
void Solver::add(const z3::expr& e) {
  solver_.add(e);
  ++num_assertions_;
}

z3::expr Solver::at_most(std::span<const Expr> lits, int frame, unsigned bound) {
  z3::expr_vector vec(ctx_);
  for (Expr l : lits) vec.push_back(translate(l, frame));
  return z3::atmost(vec, bound);
}

void Solver::push() { solver_.push(); }
void Solver::pop() { solver_.pop(); }

namespace {
void apply_deadline(z3::context& ctx, z3::solver& solver, const util::Deadline& deadline) {
  z3::params p(ctx);
  if (deadline.cancelled()) {
    // The run was cancelled (the service dropped its job); make any further
    // queries return immediately (the engine's next poll will stop the run).
    p.set("timeout", 1u);
    solver.set(p);
    return;
  }
  if (deadline.is_finite()) {
    const double rem = deadline.remaining_seconds();
    const unsigned ms =
        rem <= 0 ? 1u : static_cast<unsigned>(std::min(rem * 1000.0, 4.0e9));
    p.set("timeout", ms);
  } else {
    p.set("timeout", 4294967295u);
  }
  solver.set(p);
}
}  // namespace

CheckResult Solver::check(const util::Deadline& deadline) {
  apply_deadline(ctx_, solver_, deadline);
  ++num_checks_;
  model_.reset();
  const util::Stopwatch watch;
  CheckResult result;
  switch (solver_.check()) {
    case z3::sat:
      model_ = solver_.get_model();
      result = CheckResult::kSat;
      break;
    case z3::unsat:
      result = CheckResult::kUnsat;
      break;
    default:
      result = CheckResult::kUnknown;
  }
  note_check(watch.elapsed_seconds(), result, 0);
  return result;
}

CheckResult Solver::check_assuming(std::span<const z3::expr> assumptions,
                                   const util::Deadline& deadline) {
  apply_deadline(ctx_, solver_, deadline);
  ++num_checks_;
  model_.reset();
  z3::expr_vector vec(ctx_);
  for (const z3::expr& a : assumptions) vec.push_back(a);
  const util::Stopwatch watch;
  CheckResult result;
  switch (solver_.check(vec)) {
    case z3::sat:
      model_ = solver_.get_model();
      result = CheckResult::kSat;
      break;
    case z3::unsat:
      result = CheckResult::kUnsat;
      break;
    default:
      result = CheckResult::kUnknown;
  }
  note_check(watch.elapsed_seconds(), result, assumptions.size());
  return result;
}

void Solver::note_check(double seconds, CheckResult result, std::size_t assumptions) {
  check_seconds_ += seconds;
  obs::count("smt.checks");
  if (obs::TraceSink* s = obs::sink())
    s->event("smt.check")
        .attr("solver", serial_)
        .attr("result", check_result_name(result))
        .attr("assumptions", assumptions)
        .attr("seconds", seconds)
        .emit();
}

bool Solver::refine_real_model(std::span<const Expr> vars, int frame,
                               const util::Deadline& deadline,
                               std::span<const z3::expr> base) {
  static const std::pair<std::int64_t, std::int64_t> kCandidates[] = {
      {0, 1}, {1, 1}, {2, 1},  {1, 2}, {3, 1},  {1, 4},   {4, 1},
      {5, 1}, {1, 8}, {10, 1}, {8, 1}, {16, 1}, {100, 1}, {1, 100}};
  std::vector<z3::expr> assumptions(base.begin(), base.end());
  bool need_recheck = false;
  for (Expr v : vars) {
    if (!v.is_variable() || !v.type().is_real()) continue;
    for (const auto& [num, den] : kCandidates) {
      if (deadline.expired_or_cancelled()) break;
      z3::expr pin = constant_for(v, frame) == ctx_.real_val(num, den);
      assumptions.push_back(pin);
      if (check_assuming(assumptions, deadline) == CheckResult::kSat) {
        need_recheck = false;
        break;
      }
      assumptions.pop_back();
      need_recheck = true;
    }
  }
  if (!need_recheck && model_.has_value()) return true;
  return check_assuming(assumptions, deadline) == CheckResult::kSat;
}

expr::Value Solver::value_of(Expr var, int frame) {
  if (!model_) throw std::logic_error("Solver::value_of: no model available");
  const z3::expr c = constant_for(var, frame);
  const z3::expr v = model_->eval(c, /*model_completion=*/true);
  switch (var.type().kind) {
    case TypeKind::kBool:
      return v.is_true();
    case TypeKind::kInt: {
      std::int64_t out = 0;
      if (!v.is_numeral_i64(out))
        throw std::runtime_error("value_of: non-numeral integer model value for " +
                                 var.var_name());
      return out;
    }
    case TypeKind::kReal: {
      std::int64_t num = 0;
      std::int64_t den = 1;
      if (!Z3_get_numeral_rational_int64(ctx_, v, &num, &den))
        throw std::runtime_error("value_of: real model value out of 64-bit range for " +
                                 var.var_name());
      return util::Rational(num, den);
    }
  }
  throw std::logic_error("value_of: bad type");
}

ts::State Solver::state_at(std::span<const Expr> vars, int frame) {
  ts::State s;
  for (Expr v : vars) s.set(v, value_of(v, frame));
  return s;
}

z3::model Solver::model() const {
  if (!model_) throw std::logic_error("Solver::model: no model available");
  return *model_;
}

std::vector<z3::expr> Solver::unsat_core() {
  std::vector<z3::expr> out;
  const z3::expr_vector core = solver_.unsat_core();
  out.reserve(core.size());
  for (unsigned i = 0; i < core.size(); ++i) out.push_back(core[i]);
  return out;
}

z3::expr Solver::fresh_bool(const std::string& prefix) {
  const std::string name = prefix + "!f" + std::to_string(fresh_counter_++);
  return ctx_.bool_const(name.c_str());
}

ts::State params_from_model(Solver& solver, const ts::TransitionSystem& ts) {
  return solver.state_at(ts.params(), /*frame=*/0);
}

std::string z3_version() {
  unsigned major = 0, minor = 0, build = 0, revision = 0;
  Z3_get_version(&major, &minor, &build, &revision);
  return std::to_string(major) + "." + std::to_string(minor) + "." +
         std::to_string(build);
}

}  // namespace verdict::smt
