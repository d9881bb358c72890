#include "bdd/bdd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "bdd/reach_index.h"
#include "obs/trace.h"

namespace verdict::bdd {

namespace {

constexpr std::size_t kInitialSubTableSlots = 8;
constexpr std::size_t kInitialCacheSlots = 1u << 12;

// Per-sift swap budget: keeps a single pass O(blocks) table scans instead of
// the full O(blocks^2) when variable counts get large.
std::size_t swap_budget_for(std::size_t blocks) { return 24 * blocks + 512; }

}  // namespace

// Every public operation runs through one of these: at depth zero it first
// executes any pending reorder (reordering mid-recursion would break the
// canonicity of in-flight make() calls), then bumps the depth so nested calls
// (exists -> apply_or -> ite) skip the check.
struct Manager::OpGuard {
  explicit OpGuard(Manager& m) : m_(m) {
    if (m_.op_depth_ == 0) {
      m_.maybe_reorder();
      m_.maybe_grow_caches();
    }
    ++m_.op_depth_;
  }
  ~OpGuard() { --m_.op_depth_; }
  Manager& m_;
};

Manager::Manager() {
  nodes_.push_back(Node{kTerminalVar, 0, 0});  // zero
  nodes_.push_back(Node{kTerminalVar, 1, 1});  // one
  ite_cache_.resize(kInitialCacheSlots);
  diff_cache_.resize(kInitialCacheSlots / 4);
}

std::uint32_t Manager::new_var() {
  pos_of_var_.push_back(num_vars_);
  var_at_pos_.push_back(num_vars_);
  tables_.emplace_back();
  return num_vars_++;
}

std::size_t Manager::pair_hash(std::uint32_t low, std::uint32_t high) {
  std::uint64_t h = static_cast<std::uint64_t>(low) * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<std::uint64_t>(high) + 0x9E3779B97F4A7C15ull) * 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  return static_cast<std::size_t>(h);
}

void Manager::table_grow(std::uint32_t var) {
  SubTable& t = tables_[var];
  const std::size_t cap = t.slots.empty() ? kInitialSubTableSlots : t.slots.size() * 2;
  std::vector<std::uint32_t> old;
  old.swap(t.slots);
  t.slots.assign(cap, kEmptySlot);
  for (std::uint32_t id : old) {
    if (id == kEmptySlot) continue;
    const std::size_t mask = cap - 1;
    std::size_t i = pair_hash(nodes_[id].low, nodes_[id].high) & mask;
    while (t.slots[i] != kEmptySlot) i = (i + 1) & mask;
    t.slots[i] = id;
  }
}

void Manager::table_insert(std::uint32_t var, std::uint32_t id) {
  SubTable& t = tables_[var];
  if (t.slots.empty() || (t.count + 1) * 4 > t.slots.size() * 3) table_grow(var);
  const std::size_t mask = t.slots.size() - 1;
  std::size_t i = pair_hash(nodes_[id].low, nodes_[id].high) & mask;
  while (t.slots[i] != kEmptySlot) i = (i + 1) & mask;
  t.slots[i] = id;
  ++t.count;
  ++table_nodes_;
}

void Manager::table_erase(std::uint32_t var, std::uint32_t id) {
  SubTable& t = tables_[var];
  const std::size_t mask = t.slots.size() - 1;
  std::size_t gap = pair_hash(nodes_[id].low, nodes_[id].high) & mask;
  while (t.slots[gap] != id) gap = (gap + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe run into the
  // gap when the gap lies between its home slot and its current slot, so no
  // lookup ever stops short at the emptied slot.
  for (std::size_t j = (gap + 1) & mask; t.slots[j] != kEmptySlot; j = (j + 1) & mask) {
    const Node& n = nodes_[t.slots[j]];
    const std::size_t home = pair_hash(n.low, n.high) & mask;
    if (((j - home) & mask) >= ((j - gap) & mask)) {
      t.slots[gap] = t.slots[j];
      gap = j;
    }
  }
  t.slots[gap] = kEmptySlot;
  --t.count;
  --table_nodes_;
}

void Manager::collect(std::uint32_t id) {
  const Node n = nodes_[id];
  table_erase(n.var, id);
  nodes_[id] = Node{kTerminalVar, 0, 0};
  ++collected_;
  if (reordering_ && id >= sift_first_id_) free_ids_.push_back(id);
  // Recursion depth is bounded by the number of variables, as in ite_rec.
  release(n.low);
  release(n.high);
}

void Manager::collect_garbage() {
  // Gather first: collect() reshuffles the subtables it erases from.
  std::vector<std::uint32_t> roots;
  for (const SubTable& t : tables_)
    for (const std::uint32_t id : t.slots)
      if (id != kEmptySlot && nodes_[id].ref == 0 && !nodes_[id].exported) roots.push_back(id);
  const std::size_t before = collected_;
  for (const std::uint32_t id : roots) collect(id);
  if (collected_ > before) obs::count("bdd.gc.collected", collected_ - before);
}

void Manager::purge_dead_cache_entries() {
  for (CacheEntry& e : ite_cache_) {
    if (e.a == kEmptySlot) continue;
    if (is_hole(e.a) || is_hole(e.b) || is_hole(e.c) || is_hole(e.r)) e = CacheEntry{};
  }
  for (CacheEntry& e : diff_cache_) {
    if (e.a == kEmptySlot) continue;
    if (is_hole(e.a) || is_hole(e.b) || is_hole(e.r)) e = CacheEntry{};
  }
}

Bdd Manager::make(std::uint32_t var, Bdd low, Bdd high) {
  if (low == high) return low;
  SubTable& t = tables_[var];
  if (t.slots.empty() || (t.count + 1) * 4 > t.slots.size() * 3) table_grow(var);
  const std::size_t mask = t.slots.size() - 1;
  std::size_t i = pair_hash(low.id(), high.id()) & mask;
  while (t.slots[i] != kEmptySlot) {
    const Node& n = nodes_[t.slots[i]];
    if (n.low == low.id() && n.high == high.id()) return Bdd(t.slots[i]);
    i = (i + 1) & mask;
  }
  std::uint32_t id;
  if (free_ids_.empty()) {
    id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{var, low.id(), high.id()});
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
    nodes_[id] = Node{var, low.id(), high.id()};
  }
  ref_inc(low.id());
  ref_inc(high.id());
  t.slots[i] = id;
  ++t.count;
  ++table_nodes_;
  if (auto_reorder_ && !reordering_ && table_nodes_ >= reorder_threshold_)
    reorder_pending_ = true;
  if (--abort_countdown_ == 0) {
    abort_countdown_ = kAbortPollInterval;
    // Never mid-sift: swap_adjacent must complete atomically.
    if (!reordering_ && abort_check_ && abort_check_()) throw AbortRequested{};
  }
  return Bdd(id);
}

Bdd Manager::var(std::uint32_t v) {
  if (v >= num_vars_) throw std::invalid_argument("Bdd var: unknown variable");
  return exported(make(v, Bdd::zero(), Bdd::one()));
}

Bdd Manager::nvar(std::uint32_t v) {
  if (v >= num_vars_) throw std::invalid_argument("Bdd nvar: unknown variable");
  return exported(make(v, Bdd::one(), Bdd::zero()));
}

Bdd Manager::ite(Bdd f, Bdd g, Bdd h) {
  OpGuard guard(*this);
  return exported(ite_rec(f, g, h));
}

Bdd Manager::ite_rec(Bdd f, Bdd g, Bdd h) {
  // Terminal cases.
  if (f.is_one()) return g;
  if (f.is_zero()) return h;
  if (g == h) return g;
  if (g.is_one() && h.is_zero()) return f;

  const std::size_t mask = ite_cache_.size() - 1;
  const std::size_t slot =
      (pair_hash(f.id(), g.id()) ^ (static_cast<std::size_t>(h.id()) * 0x9E3779B1u)) & mask;
  CacheEntry& e = ite_cache_[slot];
  if (e.a == f.id() && e.b == g.id() && e.c == h.id()) return Bdd(e.r);

  const std::uint32_t pf = pos_of_node(f.id());
  const std::uint32_t pg = pos_of_node(g.id());
  const std::uint32_t ph = pos_of_node(h.id());
  const std::uint32_t top_pos = std::min({pf, pg, ph});
  const std::uint32_t top = var_at_pos_[top_pos];

  const auto cofactor = [&](Bdd x, bool positive) -> Bdd {
    if (x.is_terminal() || nodes_[x.id()].var != top) return x;
    return Bdd(positive ? nodes_[x.id()].high : nodes_[x.id()].low);
  };

  const Bdd low = ite_rec(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  const Bdd high = ite_rec(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const Bdd result = make(top, low, high);
  e = CacheEntry{f.id(), g.id(), h.id(), result.id()};
  return result;
}

Bdd Manager::apply_xor(Bdd a, Bdd b) { return ite(a, apply_not(b), b); }

Bdd Manager::apply_diff(Bdd a, Bdd b, ReachIndex* index) {
  OpGuard guard(*this);
  if (index != nullptr) index->bind(*this);
  return exported(diff_rec(a, b, index));
}

Bdd Manager::diff_rec(Bdd a, Bdd b, ReachIndex* index) {
  if (a.is_zero() || b.is_one()) return Bdd::zero();
  if (b.is_zero()) return a;
  if (a == b) return Bdd::zero();

  // The index is consulted only while b is still the exact set the index was
  // advanced to (along the spine where a branches above b's top variable):
  // membership certifies a <= some earlier root <= b. Cofactors of b are NOT
  // supersets of those roots, so deeper frames skip the index.
  const bool at_root = index != nullptr && b == index->root();
  if (at_root && index->contains(a.id())) {
    static std::atomic<std::uint64_t>& hits = obs::counter("bdd.index.hits");
    hits.fetch_add(1, std::memory_order_relaxed);
    return Bdd::zero();
  }

  const std::size_t mask = diff_cache_.size() - 1;
  const std::size_t slot = pair_hash(a.id(), b.id()) & mask;
  CacheEntry& e = diff_cache_[slot];
  if (e.a == a.id() && e.b == b.id()) return Bdd(e.r);

  const std::uint32_t pa = pos_of_node(a.id());
  const std::uint32_t pb = pos_of_node(b.id());
  const std::uint32_t top_pos = std::min(pa, pb);
  const std::uint32_t top = var_at_pos_[top_pos];
  const Bdd a_low = pa == top_pos ? Bdd(nodes_[a.id()].low) : a;
  const Bdd a_high = pa == top_pos ? Bdd(nodes_[a.id()].high) : a;
  const Bdd b_low = pb == top_pos ? Bdd(nodes_[b.id()].low) : b;
  const Bdd b_high = pb == top_pos ? Bdd(nodes_[b.id()].high) : b;

  const Bdd result = make(top, diff_rec(a_low, b_low, index), diff_rec(a_high, b_high, index));
  e = CacheEntry{a.id(), b.id(), 0, result.id()};
  if (at_root && result.is_zero() && !a.is_terminal()) {
    index->mark(a.id());
    static std::atomic<std::uint64_t>& marks = obs::counter("bdd.index.marks");
    marks.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

bool Manager::subset(Bdd a, Bdd b) {
  OpGuard guard(*this);
  std::unordered_set<std::uint64_t> proven;
  return subset_rec(a, b, proven);
}

bool Manager::subset_rec(Bdd a, Bdd b, std::unordered_set<std::uint64_t>& proven) const {
  if (a == b || a.is_zero() || b.is_one()) return true;
  if (b.is_zero()) return false;  // a != zero here
  if (a.is_one()) return false;   // b != one here
  const std::uint64_t key = (static_cast<std::uint64_t>(a.id()) << 32) | b.id();
  if (proven.contains(key)) return true;

  const std::uint32_t pa = pos_of_node(a.id());
  const std::uint32_t pb = pos_of_node(b.id());
  const std::uint32_t top_pos = std::min(pa, pb);
  const Bdd a_low = pa == top_pos ? Bdd(nodes_[a.id()].low) : a;
  const Bdd a_high = pa == top_pos ? Bdd(nodes_[a.id()].high) : a;
  const Bdd b_low = pb == top_pos ? Bdd(nodes_[b.id()].low) : b;
  const Bdd b_high = pb == top_pos ? Bdd(nodes_[b.id()].high) : b;

  if (!subset_rec(a_low, b_low, proven) || !subset_rec(a_high, b_high, proven)) return false;
  proven.insert(key);
  return true;
}

namespace {
// Sorted variable-index set helper: true when `v` is in `vars`.
bool contains_var(std::span<const std::uint32_t> vars, std::uint32_t v) {
  return std::binary_search(vars.begin(), vars.end(), v);
}
}  // namespace

Bdd Manager::exists(Bdd f, std::span<const std::uint32_t> vars) {
  OpGuard guard(*this);
  std::vector<std::uint32_t> sorted(vars.begin(), vars.end());
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<std::uint32_t, Bdd> memo;
  const std::function<Bdd(Bdd)> go = [&](Bdd x) -> Bdd {
    if (x.is_terminal()) return x;
    const auto it = memo.find(x.id());
    if (it != memo.end()) return it->second;
    const Node n = nodes_[x.id()];  // a copy: the recursion may grow nodes_
    const Bdd low = go(Bdd(n.low));
    const Bdd high = go(Bdd(n.high));
    const Bdd result =
        contains_var(sorted, n.var) ? ite_rec(low, Bdd::one(), high) : make(n.var, low, high);
    memo.emplace(x.id(), result);
    return result;
  };
  return exported(go(f));
}

Bdd Manager::forall(Bdd f, std::span<const std::uint32_t> vars) {
  return apply_not(exists(apply_not(f), vars));
}

Bdd Manager::and_exists(Bdd f, Bdd g, std::span<const std::uint32_t> vars) {
  OpGuard guard(*this);
  std::vector<std::uint32_t> sorted(vars.begin(), vars.end());
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<std::uint64_t, Bdd> memo;
  const std::function<Bdd(Bdd, Bdd)> go = [&](Bdd a, Bdd b) -> Bdd {
    if (a.is_zero() || b.is_zero()) return Bdd::zero();
    if (a.is_one() && b.is_one()) return Bdd::one();
    if (a.is_one()) return exists(b, sorted);
    if (b.is_one()) return exists(a, sorted);
    const std::uint64_t key = (static_cast<std::uint64_t>(a.id()) << 32) | b.id();
    const auto it = memo.find(key);
    if (it != memo.end()) return it->second;

    const std::uint32_t pa = pos_of_node(a.id());
    const std::uint32_t pb = pos_of_node(b.id());
    const std::uint32_t top_pos = std::min(pa, pb);
    const std::uint32_t top = var_at_pos_[top_pos];
    const Bdd a_low = pa == top_pos ? Bdd(nodes_[a.id()].low) : a;
    const Bdd a_high = pa == top_pos ? Bdd(nodes_[a.id()].high) : a;
    const Bdd b_low = pb == top_pos ? Bdd(nodes_[b.id()].low) : b;
    const Bdd b_high = pb == top_pos ? Bdd(nodes_[b.id()].high) : b;

    Bdd result;
    if (contains_var(sorted, top)) {
      const Bdd low = go(a_low, b_low);
      if (low.is_one()) {
        result = Bdd::one();  // short-circuit: exists already true
      } else {
        result = ite_rec(low, Bdd::one(), go(a_high, b_high));
      }
    } else {
      result = make(top, go(a_low, b_low), go(a_high, b_high));
    }
    memo.emplace(key, result);
    return result;
  };
  return exported(go(f, g));
}

Bdd Manager::rename(Bdd f, std::span<const std::uint32_t> perm) {
  OpGuard guard(*this);
  std::unordered_map<std::uint32_t, Bdd> memo;
  const std::function<Bdd(Bdd)> go = [&](Bdd x) -> Bdd {
    if (x.is_terminal()) return x;
    const auto it = memo.find(x.id());
    if (it != memo.end()) return it->second;
    const Node n = nodes_[x.id()];  // a copy: the recursion may grow nodes_
    const std::uint32_t target = n.var < perm.size() ? perm[n.var] : n.var;
    const Bdd result = make(target, go(Bdd(n.low)), go(Bdd(n.high)));
    memo.emplace(x.id(), result);
    return result;
  };
  return exported(go(f));
}

std::vector<bool> Manager::any_sat(Bdd f) {
  if (f.is_zero()) throw std::invalid_argument("any_sat on the zero BDD");
  std::vector<bool> assignment(num_vars_, false);
  Bdd cur = f;
  while (!cur.is_terminal()) {
    const Node& n = nodes_[cur.id()];
    if (!Bdd(n.high).is_zero()) {
      assignment[n.var] = true;
      cur = Bdd(n.high);
    } else {
      cur = Bdd(n.low);
    }
  }
  return assignment;
}

double Manager::sat_count(Bdd f) {
  std::unordered_map<std::uint32_t, double> memo;
  const std::function<double(Bdd)> frac = [&](Bdd x) -> double {
    if (x.is_zero()) return 0.0;
    if (x.is_one()) return 1.0;
    const auto it = memo.find(x.id());
    if (it != memo.end()) return it->second;
    const Node& n = nodes_[x.id()];
    const double result = 0.5 * frac(Bdd(n.low)) + 0.5 * frac(Bdd(n.high));
    memo.emplace(x.id(), result);
    return result;
  };
  return frac(f) * std::pow(2.0, static_cast<double>(num_vars_));
}

std::size_t Manager::size(Bdd f) {
  std::vector<std::uint32_t> stack{f.id()};
  std::unordered_set<std::uint32_t> seen;
  std::size_t count = 0;
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    if (seen.contains(id)) continue;
    seen.insert(id);
    ++count;
    const Node& n = nodes_[id];
    if (n.var != kTerminalVar) {
      stack.push_back(n.low);
      stack.push_back(n.high);
    }
  }
  return count;
}

bool Manager::eval(Bdd f, const std::vector<bool>& assignment) const {
  Bdd cur = f;
  while (!cur.is_terminal()) {
    const Node& n = nodes_[cur.id()];
    if (n.var >= assignment.size())
      throw std::invalid_argument("Bdd eval: assignment too short");
    cur = assignment[n.var] ? Bdd(n.high) : Bdd(n.low);
  }
  return cur.is_one();
}

// --- Dynamic reordering ------------------------------------------------------

void Manager::set_auto_reorder(bool enabled, std::uint32_t block_size) {
  auto_reorder_ = enabled;
  block_size_ = block_size == 0 ? 1 : block_size;
}

void Manager::maybe_grow_caches() {
  if (nodes_.size() > ite_cache_.size()) {
    std::size_t cap = ite_cache_.size();
    while (cap < nodes_.size()) cap *= 2;
    ite_cache_.assign(cap, CacheEntry{});
    diff_cache_.assign(cap / 4, CacheEntry{});
  }
}

void Manager::maybe_reorder() {
  if (!reorder_pending_ || !auto_reorder_ || reordering_) return;
  reorder_pending_ = false;
  sift();
  // Re-arm at a comfortably higher node count so sifting stays amortized.
  reorder_threshold_ = std::max(reorder_threshold_ * 2, table_nodes_ * 2);
}

void Manager::reorder_now() {
  if (reordering_) return;
  sift();
  reorder_pending_ = false;
}

std::uint32_t Manager::block_pos_of(std::uint32_t block) const {
  return pos_of_var_[block * block_size_] / block_size_;
}

void Manager::swap_blocks(std::uint32_t block_pos) {
  const std::uint32_t p = block_pos * block_size_;
  if (block_size_ == 1) {
    swap_adjacent(p);
    return;
  }
  // Move the whole lower block past the upper one with adjacent transpositions
  // (for blocks [x1 x2][y1 y2]: -> x1 y1 x2 y2 -> y1 x1 x2 y2 -> y1 x1 y2 x2
  // -> y1 y2 x1 x2), preserving each block's internal order.
  for (std::uint32_t step = 0; step < block_size_; ++step) {
    for (std::uint32_t i = 0; i < block_size_; ++i) {
      swap_adjacent(p + block_size_ - 1 - step + i);
    }
  }
}

void Manager::swap_adjacent(std::uint32_t p) {
  if (p + 1 >= num_vars_) throw std::invalid_argument("swap_adjacent: position out of range");
  const std::uint32_t u = var_at_pos_[p];
  const std::uint32_t v = var_at_pos_[p + 1];
  SubTable& tu = tables_[u];

  // u's nodes with a child branching on v must be rewritten in place (their
  // id keeps denoting the same function, so every client handle and cache
  // entry stays valid); the rest are untouched.
  std::vector<std::uint32_t> rewrite;
  for (const std::uint32_t id : tu.slots) {
    if (id == kEmptySlot) continue;
    const Node& n = nodes_[id];
    if (nodes_[n.low].var == v || nodes_[n.high].var == v) rewrite.push_back(id);
  }

  var_at_pos_[p] = v;
  var_at_pos_[p + 1] = u;
  pos_of_var_[u] = p + 1;
  pos_of_var_[v] = p;
  if (rewrite.empty()) return;

  for (const std::uint32_t id : rewrite) table_erase(u, id);
  const std::size_t collected_before = collected_;
  for (const std::uint32_t id : rewrite) {
    const Node n = nodes_[id];  // copy: nodes_ may reallocate below
    const bool low_on_v = nodes_[n.low].var == v;
    const bool high_on_v = nodes_[n.high].var == v;
    const Bdd f00 = low_on_v ? Bdd(nodes_[n.low].low) : Bdd(n.low);
    const Bdd f01 = low_on_v ? Bdd(nodes_[n.low].high) : Bdd(n.low);
    const Bdd f10 = high_on_v ? Bdd(nodes_[n.high].low) : Bdd(n.high);
    const Bdd f11 = high_on_v ? Bdd(nodes_[n.high].high) : Bdd(n.high);
    // f = ite(v, ite(u, f11, f01), ite(u, f10, f00)) with v now above u.
    const Bdd new_low = make(u, f00, f10);
    const Bdd new_high = make(u, f01, f11);
    ref_inc(new_low.id());
    ref_inc(new_high.id());
    nodes_[id].var = v;
    nodes_[id].low = new_low.id();
    nodes_[id].high = new_high.id();
    table_insert(v, id);
    // The old cofactors lose a parent; any left orphaned and unexported are
    // garbage now, and so is whatever only they kept alive.
    release(n.low);
    release(n.high);
  }
  // Inside a sift the purge runs once, when the sift ends.
  if (!reordering_ && collected_ != collected_before) purge_dead_cache_entries();
  static std::atomic<std::uint64_t>& swaps = obs::counter("bdd.reorder.swaps");
  swaps.fetch_add(1, std::memory_order_relaxed);
}

void Manager::sift() {
  if (num_vars_ < 2 * block_size_) return;
  reordering_ = true;
  // With the garbage gone, every table node is reachable from an exported
  // node, and for a fixed order that set is canonical: table_nodes_ is the
  // honest quality metric, and walking back to the best position restores it.
  sift_first_id_ = static_cast<std::uint32_t>(nodes_.size());
  collect_garbage();
  const std::uint32_t nb = num_vars_ / block_size_;  // trailing partial block never moves

  // Largest blocks first: they have the most to gain.
  std::vector<std::pair<std::size_t, std::uint32_t>> by_size;
  by_size.reserve(nb);
  for (std::uint32_t b = 0; b < nb; ++b) {
    std::size_t sz = 0;
    for (std::uint32_t i = 0; i < block_size_; ++i) sz += tables_[b * block_size_ + i].count;
    by_size.emplace_back(sz, b);
  }
  std::sort(by_size.begin(), by_size.end(), std::greater<>());

  const std::size_t live_before = table_nodes_;
  std::ptrdiff_t budget = static_cast<std::ptrdiff_t>(swap_budget_for(nb));
  for (const auto& [unused_sz, block] : by_size) {
    if (budget <= 0) break;
    // Walk the block down to the bottom, then up to the top, tracking the
    // position with the fewest table nodes; finish by walking back to it. A
    // direction is abandoned early when the total grows past 1.2x the best
    // seen (the classic sifting max-growth heuristic).
    std::uint32_t bp = block_pos_of(block);
    const std::uint32_t origin = bp;
    std::size_t best = table_nodes_;
    std::uint32_t best_pos = bp;
    const auto limit = [&] { return best + best / 5 + 16; };
    while (bp + 1 < nb && table_nodes_ <= limit()) {
      swap_blocks(bp);
      --budget;
      ++bp;
      if (table_nodes_ < best) best = table_nodes_, best_pos = bp;
    }
    // Walking back through already-explored positions undoes any growth, so
    // the max-growth abort only applies above the starting position.
    while (bp > 0 && (bp > origin || table_nodes_ <= limit())) {
      swap_blocks(bp - 1);
      --budget;
      --bp;
      if (table_nodes_ < best) best = table_nodes_, best_pos = bp;
    }
    while (bp < best_pos) swap_blocks(bp), ++bp;
    while (bp > best_pos) swap_blocks(bp - 1), --bp;
  }
  free_ids_.clear();
  purge_dead_cache_entries();
  ++reorder_runs_;
  obs::count("bdd.reorder.runs");
  if (live_before > table_nodes_) obs::count("bdd.reorder.nodes_saved", live_before - table_nodes_);
  reordering_ = false;
}

}  // namespace verdict::bdd
