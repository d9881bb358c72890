#include "expr/expr.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace verdict::expr {

namespace {

std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

std::size_t hash_value(const Value& v) {
  return std::visit(
      [](const auto& x) -> std::size_t {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, bool>) return x ? 0x9e37u : 0x79b9u;
        if constexpr (std::is_same_v<T, std::int64_t>)
          return std::hash<std::int64_t>{}(x);
        if constexpr (std::is_same_v<T, util::Rational>)
          return hash_combine(std::hash<std::int64_t>{}(x.num()),
                              std::hash<std::int64_t>{}(x.den()));
      },
      v);
}

struct Node {
  Kind kind = Kind::kConstant;
  Type type;
  VarId var = 0;
  Value value{false};
  std::vector<Expr> kids;
};

struct Key {
  Kind kind;
  Type type;
  VarId var;
  Value value;
  std::vector<std::uint32_t> kids;

  friend bool operator==(const Key& a, const Key& b) {
    return a.kind == b.kind && a.type == b.type && a.var == b.var &&
           value_eq(a.value, b.value) && a.kids == b.kids;
  }
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::size_t h = static_cast<std::size_t>(k.kind);
    h = hash_combine(h, static_cast<std::size_t>(k.type.kind));
    h = hash_combine(h, static_cast<std::size_t>(k.type.bounded));
    h = hash_combine(h, std::hash<std::int64_t>{}(k.type.lo));
    h = hash_combine(h, std::hash<std::int64_t>{}(k.type.hi));
    h = hash_combine(h, k.var);
    h = hash_combine(h, hash_value(k.value));
    for (std::uint32_t kid : k.kids) h = hash_combine(h, kid);
    return h;
  }
};

struct VarInfo {
  std::string name;
  Type type;
  Expr node;  // the interned kVariable node
};

// The arena supports concurrent use by service batches on pool workers:
// interning and variable declaration serialize on one mutex, while the far
// hotter read side (Expr accessors, the evaluator, engine translations) is
// lock-free.
// Nodes live in fixed-size chunks that never move once allocated; a reader
// only dereferences ids below the published size, and the release-store of
// the size counter (after the node and its chunk pointer are fully written)
// paired with the acquire-load on the read side makes the node contents
// visible without further synchronization. Interned nodes are immutable, so
// concurrent reads of the same node are safe.
class Arena {
  static constexpr std::size_t kNodeChunkShift = 12;  // 4096 nodes per chunk
  static constexpr std::size_t kNodeChunkSize = std::size_t{1} << kNodeChunkShift;
  static constexpr std::size_t kMaxNodeChunks = std::size_t{1} << 14;  // 64M nodes
  static constexpr std::size_t kVarChunkShift = 10;  // 1024 vars per chunk
  static constexpr std::size_t kVarChunkSize = std::size_t{1} << kVarChunkShift;
  static constexpr std::size_t kMaxVarChunks = std::size_t{1} << 12;  // 4M vars

 public:
  Arena() {
    node_slot(0);  // id 0 = invalid sentinel
    size_.store(1, std::memory_order_release);
  }

  ~Arena() {
    for (auto& c : node_chunks_) delete[] c.load(std::memory_order_relaxed);
    for (auto& c : var_chunks_) delete[] c.load(std::memory_order_relaxed);
  }

  Expr intern(Node node) {
    Key key{node.kind, node.type, node.var, node.value, {}};
    key.kids.reserve(node.kids.size());
    for (Expr k : node.kids) key.kids.push_back(k.id());
    std::lock_guard<std::mutex> lock(mu_);
    return intern_locked(std::move(key), std::move(node));
  }

  const Node& node(std::uint32_t id) const {
    if (id == 0 || id >= size_.load(std::memory_order_acquire))
      throw std::logic_error("Expr: access through invalid handle");
    return node_chunks_[id >> kNodeChunkShift].load(std::memory_order_acquire)
        [id & (kNodeChunkSize - 1)];
  }

  Expr declare(std::string_view name, Type type) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = var_names_.find(std::string(name));
    if (it != var_names_.end()) {
      const VarInfo& info = var_chunks_[it->second >> kVarChunkShift].load(
          std::memory_order_relaxed)[it->second & (kVarChunkSize - 1)];
      if (!(info.type == type))
        throw std::invalid_argument("variable redeclared with different type: " +
                                    std::string(name));
      return info.node;
    }
    const VarId id = var_count_.load(std::memory_order_relaxed);
    Node n;
    n.kind = Kind::kVariable;
    n.type = type;
    n.var = id;
    Key key{n.kind, n.type, n.var, n.value, {}};
    Expr e = intern_locked(std::move(key), std::move(n));
    VarInfo& slot = var_slot(id);
    slot = VarInfo{std::string(name), type, e};
    var_names_.emplace(std::string(name), id);
    var_count_.store(id + 1, std::memory_order_release);
    return e;
  }

  const VarInfo& var_info(VarId id) const {
    if (id >= var_count_.load(std::memory_order_acquire))
      throw std::logic_error("unknown VarId");
    return var_chunks_[id >> kVarChunkShift].load(std::memory_order_acquire)
        [id & (kVarChunkSize - 1)];
  }

  Expr find_var(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = var_names_.find(std::string(name));
    if (it == var_names_.end())
      throw std::invalid_argument("unknown variable: " + std::string(name));
    return var_info(it->second).node;
  }

  bool has_var(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return var_names_.contains(std::string(name));
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire) - 1; }

  void reserve(std::size_t nodes, std::size_t vars) {
    std::lock_guard<std::mutex> lock(mu_);
    table_.reserve(table_.size() + nodes);
    var_names_.reserve(var_names_.size() + vars);
    // A reservation is deliberate growth, not a mid-build rehash: rebase the
    // bucket count the rehash detector compares against.
    last_bucket_count_ = table_.bucket_count();
  }

  std::size_t rehashes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rehashes_;
  }

 private:
  Expr intern_locked(Key key, Node node) {
    const auto it = table_.find(key);
    if (it != table_.end()) return detail_make_expr(it->second);
    const std::uint32_t id = size_.load(std::memory_order_relaxed);
    node_slot(id) = std::move(node);
    table_.emplace(std::move(key), id);
    const std::size_t buckets = table_.bucket_count();
    if (buckets != last_bucket_count_) {
      if (last_bucket_count_ != 0) ++rehashes_;
      last_bucket_count_ = buckets;
    }
    size_.store(id + 1, std::memory_order_release);
    return detail_make_expr(id);
  }

  Node& node_slot(std::uint32_t id) {
    const std::size_t chunk = id >> kNodeChunkShift;
    if (chunk >= kMaxNodeChunks) throw std::length_error("expr arena full");
    Node* p = node_chunks_[chunk].load(std::memory_order_relaxed);
    if (!p) {
      p = new Node[kNodeChunkSize];
      node_chunks_[chunk].store(p, std::memory_order_release);
    }
    return p[id & (kNodeChunkSize - 1)];
  }

  VarInfo& var_slot(VarId id) {
    const std::size_t chunk = id >> kVarChunkShift;
    if (chunk >= kMaxVarChunks) throw std::length_error("expr arena: too many variables");
    VarInfo* p = var_chunks_[chunk].load(std::memory_order_relaxed);
    if (!p) {
      p = new VarInfo[kVarChunkSize];
      var_chunks_[chunk].store(p, std::memory_order_release);
    }
    return p[id & (kVarChunkSize - 1)];
  }

  std::array<std::atomic<Node*>, kMaxNodeChunks> node_chunks_{};
  std::atomic<std::uint32_t> size_{0};
  std::array<std::atomic<VarInfo*>, kMaxVarChunks> var_chunks_{};
  std::atomic<VarId> var_count_{0};

  mutable std::mutex mu_;  // guards table_, var_names_, and slot growth
  std::unordered_map<Key, std::uint32_t, KeyHash> table_;
  std::unordered_map<std::string, VarId> var_names_;
  std::size_t last_bucket_count_ = 0;
  std::size_t rehashes_ = 0;
};

Arena& arena() {
  static Arena a;
  return a;
}

[[noreturn]] void type_error(const std::string& what) {
  throw std::invalid_argument("expr type error: " + what);
}

void require_valid(Expr e, const char* where) {
  if (!e.valid()) throw std::invalid_argument(std::string("invalid Expr passed to ") + where);
}

bool is_numeric(const Type& t) { return t.is_int() || t.is_real(); }

// Promotes a/b to a common numeric type (int or real). Returns the common
// type kind; rewrites the operands in place.
TypeKind promote_numeric(Expr& a, Expr& b, const char* where) {
  require_valid(a, where);
  require_valid(b, where);
  if (!is_numeric(a.type()) || !is_numeric(b.type()))
    type_error(std::string(where) + ": operands must be numeric");
  if (a.type().is_real() || b.type().is_real()) {
    a = to_real(a);
    b = to_real(b);
    return TypeKind::kReal;
  }
  return TypeKind::kInt;
}

util::Rational as_rational(const Value& v) {
  if (std::holds_alternative<std::int64_t>(v))
    return util::Rational(std::get<std::int64_t>(v));
  return std::get<util::Rational>(v);
}

}  // namespace

// --- Value helpers -----------------------------------------------------------

std::string value_str(const Value& v) {
  return std::visit(
      [](const auto& x) -> std::string {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, bool>) return x ? "true" : "false";
        if constexpr (std::is_same_v<T, std::int64_t>) return std::to_string(x);
        if constexpr (std::is_same_v<T, util::Rational>) return x.str();
      },
      v);
}

bool value_eq(const Value& a, const Value& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&](const auto& x) -> bool {
        using T = std::decay_t<decltype(x)>;
        return x == std::get<T>(b);
      },
      a);
}

Expr detail_make_expr(std::uint32_t id) noexcept { return Expr(id); }

// --- Expr accessors ----------------------------------------------------------

Kind Expr::kind() const { return arena().node(id_).kind; }
Type Expr::type() const { return arena().node(id_).type; }
std::span<const Expr> Expr::kids() const { return arena().node(id_).kids; }

const Value& Expr::constant_value() const {
  const Node& n = arena().node(id_);
  if (n.kind != Kind::kConstant) throw std::logic_error("constant_value on non-constant");
  return n.value;
}

VarId Expr::var() const {
  const Node& n = arena().node(id_);
  if (n.kind == Kind::kVariable) return n.var;
  if (n.kind == Kind::kNext) return n.kids[0].var();
  throw std::logic_error("var() on non-variable expression");
}

const std::string& Expr::var_name() const { return arena().var_info(var()).name; }

bool Expr::is_true() const {
  if (!valid()) return false;
  const Node& n = arena().node(id_);
  return n.kind == Kind::kConstant && n.type.is_bool() && std::get<bool>(n.value);
}

bool Expr::is_false() const {
  if (!valid()) return false;
  const Node& n = arena().node(id_);
  return n.kind == Kind::kConstant && n.type.is_bool() && !std::get<bool>(n.value);
}

// --- Variable declaration ----------------------------------------------------

Expr declare_var(std::string_view name, Type type) { return arena().declare(name, type); }
Expr bool_var(std::string_view name) { return declare_var(name, Type::boolean()); }
Expr int_var(std::string_view name) { return declare_var(name, Type::integer()); }
Expr int_var(std::string_view name, std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("int_var: empty range");
  return declare_var(name, Type::integer_range(lo, hi));
}
Expr real_var(std::string_view name) { return declare_var(name, Type::real()); }

Expr var_by_name(std::string_view name) { return arena().find_var(name); }
bool var_exists(std::string_view name) { return arena().has_var(name); }
Type var_type(VarId id) { return arena().var_info(id).type; }
const std::string& var_name(VarId id) { return arena().var_info(id).name; }

// --- Constants ---------------------------------------------------------------

Expr bool_const(bool b) {
  Node n;
  n.kind = Kind::kConstant;
  n.type = Type::boolean();
  n.value = b;
  return arena().intern(std::move(n));
}
Expr tru() { return bool_const(true); }
Expr fls() { return bool_const(false); }

Expr int_const(std::int64_t v) {
  Node n;
  n.kind = Kind::kConstant;
  n.type = Type::integer();
  n.value = v;
  return arena().intern(std::move(n));
}

Expr real_const(util::Rational r) {
  Node n;
  n.kind = Kind::kConstant;
  n.type = Type::real();
  n.value = std::move(r);
  return arena().intern(std::move(n));
}

Expr constant_of(const Value& v, const Type& type) {
  switch (type.kind) {
    case TypeKind::kBool:
      return bool_const(std::get<bool>(v));
    case TypeKind::kInt:
      return int_const(std::get<std::int64_t>(v));
    case TypeKind::kReal:
      return real_const(as_rational(v));
  }
  throw std::logic_error("constant_of: bad type");
}

// --- Core builders -----------------------------------------------------------

Expr mk_not(Expr e) {
  require_valid(e, "mk_not");
  if (!e.type().is_bool()) type_error("mk_not on non-boolean");
  if (e.is_true()) return fls();
  if (e.is_false()) return tru();
  if (e.kind() == Kind::kNot) return e.kids()[0];
  Node n;
  n.kind = Kind::kNot;
  n.type = Type::boolean();
  n.kids = {e};
  return arena().intern(std::move(n));
}

namespace {

// Shared n-ary builder for And/Or: flatten, drop neutral, short-circuit on
// absorbing, dedupe, detect complementary literals, sort canonically.
Expr build_nary_bool(Kind kind, std::span<const Expr> kids) {
  const bool is_and = kind == Kind::kAnd;
  const Expr neutral = is_and ? tru() : fls();
  const Expr absorbing = is_and ? fls() : tru();
  std::vector<Expr> flat;
  flat.reserve(kids.size());
  const std::function<bool(Expr)> push = [&](Expr e) -> bool {
    require_valid(e, is_and ? "mk_and" : "mk_or");
    if (!e.type().is_bool()) type_error("boolean connective on non-boolean operand");
    if (e.is(absorbing)) return false;  // whole expression collapses
    if (e.is(neutral)) return true;
    if (e.kind() == kind) {
      for (Expr k : e.kids())
        if (!push(k)) return false;
      return true;
    }
    flat.push_back(e);
    return true;
  };
  for (Expr e : kids)
    if (!push(e)) return absorbing;

  std::sort(flat.begin(), flat.end(),
            [](Expr a, Expr b) { return a.id() < b.id(); });
  flat.erase(std::unique(flat.begin(), flat.end(),
                         [](Expr a, Expr b) { return a.is(b); }),
             flat.end());
  // x and !x  /  x or !x
  for (Expr e : flat) {
    if (e.kind() == Kind::kNot) {
      const Expr inner = e.kids()[0];
      if (std::binary_search(flat.begin(), flat.end(), inner,
                             [](Expr a, Expr b) { return a.id() < b.id(); }))
        return absorbing;
    }
  }
  if (flat.empty()) return neutral;
  if (flat.size() == 1) return flat[0];
  Node n;
  n.kind = kind;
  n.type = Type::boolean();
  n.kids = std::move(flat);
  return arena().intern(std::move(n));
}

}  // namespace

Expr mk_and(std::span<const Expr> kids) { return build_nary_bool(Kind::kAnd, kids); }
Expr mk_and(std::initializer_list<Expr> kids) {
  return mk_and(std::span<const Expr>(kids.begin(), kids.size()));
}
Expr mk_or(std::span<const Expr> kids) { return build_nary_bool(Kind::kOr, kids); }
Expr mk_or(std::initializer_list<Expr> kids) {
  return mk_or(std::span<const Expr>(kids.begin(), kids.size()));
}

Expr mk_implies(Expr a, Expr b) { return mk_or({mk_not(a), b}); }
Expr mk_iff(Expr a, Expr b) { return mk_eq(a, b); }

Expr ite(Expr cond, Expr then_e, Expr else_e) {
  require_valid(cond, "ite");
  require_valid(then_e, "ite");
  require_valid(else_e, "ite");
  if (!cond.type().is_bool()) type_error("ite condition must be boolean");
  Type type = then_e.type();
  if (then_e.type().kind != else_e.type().kind) {
    if (is_numeric(then_e.type()) && is_numeric(else_e.type())) {
      then_e = to_real(then_e);
      else_e = to_real(else_e);
      type = Type::real();
    } else {
      type_error("ite branches have incompatible types");
    }
  } else if (type.is_int()) {
    type = Type::integer();  // drop range metadata on derived terms
  }
  if (cond.is_true()) return then_e;
  if (cond.is_false()) return else_e;
  if (then_e.is(else_e)) return then_e;
  if (type.is_bool()) {
    if (then_e.is_true() && else_e.is_false()) return cond;
    if (then_e.is_false() && else_e.is_true()) return mk_not(cond);
    if (then_e.is_true()) return mk_or({cond, else_e});
    if (then_e.is_false()) return mk_and({mk_not(cond), else_e});
    if (else_e.is_true()) return mk_or({mk_not(cond), then_e});
    if (else_e.is_false()) return mk_and({cond, then_e});
  }
  Node n;
  n.kind = Kind::kIte;
  n.type = type;
  n.kids = {cond, then_e, else_e};
  return arena().intern(std::move(n));
}

Expr mk_eq(Expr a, Expr b) {
  require_valid(a, "mk_eq");
  require_valid(b, "mk_eq");
  if (a.type().kind != b.type().kind) {
    if (is_numeric(a.type()) && is_numeric(b.type())) {
      a = to_real(a);
      b = to_real(b);
    } else {
      type_error("mk_eq on incompatible types");
    }
  }
  if (a.is(b)) return tru();
  if (a.is_constant() && b.is_constant())
    return bool_const(a.type().is_real() || b.type().is_real()
                          ? as_rational(a.constant_value()) == as_rational(b.constant_value())
                          : value_eq(a.constant_value(), b.constant_value()));
  if (a.type().is_bool()) {
    if (a.is_true()) return b;
    if (b.is_true()) return a;
    if (a.is_false()) return mk_not(b);
    if (b.is_false()) return mk_not(a);
  }
  if (a.id() > b.id()) std::swap(a, b);  // canonical operand order
  Node n;
  n.kind = Kind::kEq;
  n.type = Type::boolean();
  n.kids = {a, b};
  return arena().intern(std::move(n));
}

namespace {
Expr build_cmp(Kind kind, Expr a, Expr b) {
  promote_numeric(a, b, kind == Kind::kLt ? "mk_lt" : "mk_le");
  if (a.is(b)) return bool_const(kind == Kind::kLe);
  if (a.is_constant() && b.is_constant()) {
    const util::Rational x = as_rational(a.constant_value());
    const util::Rational y = as_rational(b.constant_value());
    return bool_const(kind == Kind::kLt ? x < y : x <= y);
  }
  Node n;
  n.kind = kind;
  n.type = Type::boolean();
  n.kids = {a, b};
  return arena().intern(std::move(n));
}
}  // namespace

Expr mk_lt(Expr a, Expr b) { return build_cmp(Kind::kLt, a, b); }
Expr mk_le(Expr a, Expr b) { return build_cmp(Kind::kLe, a, b); }

namespace {

// Shared n-ary builder for Add/Mul: flatten, fold constants, drop neutral.
Expr build_nary_arith(Kind kind, std::span<const Expr> kids) {
  const bool is_add = kind == Kind::kAdd;
  if (kids.empty()) return is_add ? int_const(0) : int_const(1);
  bool any_real = false;
  for (Expr e : kids) {
    require_valid(e, is_add ? "mk_add" : "mk_mul");
    if (!is_numeric(e.type())) type_error("arithmetic on non-numeric operand");
    if (e.type().is_real()) any_real = true;
  }
  std::vector<Expr> flat;
  util::Rational const_acc = is_add ? util::Rational(0) : util::Rational(1);
  const std::function<void(Expr)> push = [&](Expr e) {
    if (any_real) e = to_real(e);
    if (e.kind() == kind && e.type().is_real() == any_real) {
      for (Expr k : e.kids()) push(k);
      return;
    }
    if (e.is_constant()) {
      const util::Rational v = as_rational(e.constant_value());
      if (is_add)
        const_acc += v;
      else
        const_acc *= v;
      return;
    }
    flat.push_back(e);
  };
  for (Expr e : kids) push(e);

  const Type type = any_real ? Type::real() : Type::integer();
  const auto make_const = [&](const util::Rational& r) {
    return any_real ? real_const(r) : int_const(r.num());
  };
  if (!is_add && const_acc == util::Rational(0)) return make_const(util::Rational(0));
  if (flat.empty()) return make_const(const_acc);
  const bool is_neutral =
      is_add ? const_acc == util::Rational(0) : const_acc == util::Rational(1);
  if (!is_neutral) flat.push_back(make_const(const_acc));
  if (flat.size() == 1) return flat[0];
  std::sort(flat.begin(), flat.end(),
            [](Expr a, Expr b) { return a.id() < b.id(); });
  Node n;
  n.kind = kind;
  n.type = type;
  n.kids = std::move(flat);
  return arena().intern(std::move(n));
}

}  // namespace

Expr mk_add(std::span<const Expr> kids) { return build_nary_arith(Kind::kAdd, kids); }
Expr mk_add(std::initializer_list<Expr> kids) {
  return mk_add(std::span<const Expr>(kids.begin(), kids.size()));
}
Expr mk_mul(std::span<const Expr> kids) { return build_nary_arith(Kind::kMul, kids); }
Expr mk_mul(std::initializer_list<Expr> kids) {
  return mk_mul(std::span<const Expr>(kids.begin(), kids.size()));
}

Expr mk_div(Expr a, Expr b) {
  require_valid(a, "mk_div");
  require_valid(b, "mk_div");
  a = to_real(a);
  b = to_real(b);
  if (b.is_constant()) {
    const util::Rational d = as_rational(b.constant_value());
    if (d == util::Rational(0)) throw std::domain_error("mk_div: division by constant zero");
    if (a.is_constant()) return real_const(as_rational(a.constant_value()) / d);
    return mk_mul({a, real_const(util::Rational(1) / d)});
  }
  Node n;
  n.kind = Kind::kDiv;
  n.type = Type::real();
  n.kids = {a, b};
  return arena().intern(std::move(n));
}

Expr to_real(Expr e) {
  require_valid(e, "to_real");
  if (e.type().is_real()) return e;
  if (!e.type().is_int()) type_error("to_real on non-numeric");
  if (e.is_constant())
    return real_const(util::Rational(std::get<std::int64_t>(e.constant_value())));
  Node n;
  n.kind = Kind::kToReal;
  n.type = Type::real();
  n.kids = {e};
  return arena().intern(std::move(n));
}

Expr next(Expr e) {
  require_valid(e, "next");
  if (e.kind() != Kind::kVariable)
    throw std::invalid_argument("next() is only defined on variables");
  Node n;
  n.kind = Kind::kNext;
  n.type = e.type();
  n.kids = {e};
  return arena().intern(std::move(n));
}

// --- Convenience -------------------------------------------------------------

Expr mk_min(Expr a, Expr b) { return ite(mk_le(a, b), a, b); }
Expr mk_max(Expr a, Expr b) { return ite(mk_le(a, b), b, a); }
Expr bool_to_int(Expr b) { return ite(b, int_const(1), int_const(0)); }

Expr count_true(std::span<const Expr> bools) {
  std::vector<Expr> terms;
  terms.reserve(bools.size());
  for (Expr b : bools) terms.push_back(bool_to_int(b));
  return mk_add(terms);
}

Expr all_of(const std::vector<Expr>& es) { return mk_and(std::span<const Expr>(es)); }
Expr any_of(const std::vector<Expr>& es) { return mk_or(std::span<const Expr>(es)); }

// --- Operator sugar ----------------------------------------------------------

Expr operator!(Expr e) { return mk_not(e); }
Expr operator&&(Expr a, Expr b) { return mk_and({a, b}); }
Expr operator||(Expr a, Expr b) { return mk_or({a, b}); }
Expr operator+(Expr a, Expr b) { return mk_add({a, b}); }
Expr operator*(Expr a, Expr b) { return mk_mul({a, b}); }
Expr operator-(Expr a) { return mk_mul({int_const(-1), a}); }
Expr operator-(Expr a, Expr b) { return mk_add({a, -b}); }
Expr operator/(Expr a, Expr b) { return mk_div(a, b); }
Expr operator==(Expr a, Expr b) { return mk_eq(a, b); }
Expr operator!=(Expr a, Expr b) { return mk_not(mk_eq(a, b)); }
Expr operator<(Expr a, Expr b) { return mk_lt(a, b); }
Expr operator<=(Expr a, Expr b) { return mk_le(a, b); }
Expr operator>(Expr a, Expr b) { return mk_lt(b, a); }
Expr operator>=(Expr a, Expr b) { return mk_le(b, a); }

namespace {
Expr lift_int(Expr like, std::int64_t v) {
  if (like.valid() && like.type().is_real()) return real_const(util::Rational(v));
  return int_const(v);
}
}  // namespace

Expr operator+(Expr a, std::int64_t b) { return a + lift_int(a, b); }
Expr operator+(std::int64_t a, Expr b) { return lift_int(b, a) + b; }
Expr operator-(Expr a, std::int64_t b) { return a - lift_int(a, b); }
Expr operator-(std::int64_t a, Expr b) { return lift_int(b, a) - b; }
Expr operator*(Expr a, std::int64_t b) { return a * lift_int(a, b); }
Expr operator*(std::int64_t a, Expr b) { return lift_int(b, a) * b; }
Expr operator==(Expr a, std::int64_t b) { return a == lift_int(a, b); }
Expr operator!=(Expr a, std::int64_t b) { return a != lift_int(a, b); }
Expr operator<(Expr a, std::int64_t b) { return a < lift_int(a, b); }
Expr operator<=(Expr a, std::int64_t b) { return a <= lift_int(a, b); }
Expr operator>(Expr a, std::int64_t b) { return a > lift_int(a, b); }
Expr operator>=(Expr a, std::int64_t b) { return a >= lift_int(a, b); }

// --- Printing ----------------------------------------------------------------

namespace {

void print_expr(std::ostream& os, Expr e);

void print_nary(std::ostream& os, Expr e, const char* op) {
  os << '(';
  const auto kids = e.kids();
  for (std::size_t i = 0; i < kids.size(); ++i) {
    if (i > 0) os << ' ' << op << ' ';
    print_expr(os, kids[i]);
  }
  os << ')';
}

void print_binary(std::ostream& os, Expr e, const char* op) {
  os << '(';
  print_expr(os, e.kids()[0]);
  os << ' ' << op << ' ';
  print_expr(os, e.kids()[1]);
  os << ')';
}

void print_expr(std::ostream& os, Expr e) {
  switch (e.kind()) {
    case Kind::kConstant:
      os << value_str(e.constant_value());
      return;
    case Kind::kVariable:
      os << e.var_name();
      return;
    case Kind::kNext:
      os << "next(" << e.kids()[0].var_name() << ')';
      return;
    case Kind::kNot:
      os << '!';
      print_expr(os, e.kids()[0]);
      return;
    case Kind::kAnd:
      print_nary(os, e, "&");
      return;
    case Kind::kOr:
      print_nary(os, e, "|");
      return;
    case Kind::kIte:
      os << "ite(";
      print_expr(os, e.kids()[0]);
      os << ", ";
      print_expr(os, e.kids()[1]);
      os << ", ";
      print_expr(os, e.kids()[2]);
      os << ')';
      return;
    case Kind::kEq:
      print_binary(os, e, "=");
      return;
    case Kind::kLt:
      print_binary(os, e, "<");
      return;
    case Kind::kLe:
      print_binary(os, e, "<=");
      return;
    case Kind::kAdd:
      print_nary(os, e, "+");
      return;
    case Kind::kMul:
      print_nary(os, e, "*");
      return;
    case Kind::kDiv:
      print_binary(os, e, "/");
      return;
    case Kind::kToReal:
      os << "real(";
      print_expr(os, e.kids()[0]);
      os << ')';
      return;
  }
  os << "<?>";
}

}  // namespace

std::string Expr::str() const {
  if (!valid()) return "<invalid>";
  std::ostringstream os;
  print_expr(os, *this);
  return os.str();
}

std::size_t arena_size() { return arena().size(); }

void reserve_arena(std::size_t nodes, std::size_t vars) { arena().reserve(nodes, vars); }

std::size_t arena_rehashes() { return arena().rehashes(); }

}  // namespace verdict::expr
