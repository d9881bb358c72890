// A from-scratch reduced ordered binary decision diagram (ROBDD) package.
//
// This is the finite-domain symbolic backend (the BDD half of "BDD/SAT/SMT-
// based symbolic model checking" that NuXMV provides): bit-blasted transition
// systems become BDDs here, reachability is computed by image iteration, and
// CTL properties by preimage fixpoints (bdd/ctl_checker.h).
//
// Nodes are hash-consed into an arena owned by a Manager; a Bdd handle is a
// 4-byte index. A variable is a stable *index* (assigned at creation and never
// changing, so encoder layouts and rename permutations keep meaning the same
// thing), while its *position* in the order is mutable: dynamic reordering by
// sifting moves variables via an in-place `swap_adjacent` that preserves both
// canonicity and the function denoted by every live node id — outstanding Bdd
// handles and cache entries stay valid across reorders. Sifting also collects
// garbage: a node no public operation ever returned (see Node::exported) and
// with no parents cannot be named by any client, so it is unlinked and its id
// left as a hole. An id anything outside the manager could have seen is never
// reused. The unique table is a
// per-variable open-addressed subtable (which also gives sifting its node
// counts per level for free) and the ite computed-cache is a lossy
// direct-mapped array. Complement edges are not used.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace verdict::bdd {

class Manager;
class ReachIndex;

/// Thrown by Manager operations when the installed abort hook fires (see
/// Manager::set_abort_check). Callers that install a hook catch this at their
/// operation boundary and map it to a timeout verdict.
struct AbortRequested {};

/// Handle to a node in a specific Manager. The terminal constants are
/// Bdd::zero / Bdd::one in every manager.
class Bdd {
 public:
  constexpr Bdd() noexcept : id_(0) {}

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] bool is_zero() const noexcept { return id_ == 0; }
  [[nodiscard]] bool is_one() const noexcept { return id_ == 1; }
  [[nodiscard]] bool is_terminal() const noexcept { return id_ <= 1; }

  friend bool operator==(Bdd a, Bdd b) noexcept { return a.id_ == b.id_; }

  static constexpr Bdd zero() noexcept { return Bdd(0); }
  static constexpr Bdd one() noexcept { return Bdd(1); }

 private:
  friend class Manager;
  explicit constexpr Bdd(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

class Manager {
 public:
  Manager();

  /// Creates a fresh variable; returns its index. The initial position in the
  /// order equals the index (creation order); reordering may move it later.
  std::uint32_t new_var();
  [[nodiscard]] std::uint32_t num_vars() const { return num_vars_; }

  /// The BDD "variable == value" for a single variable index.
  [[nodiscard]] Bdd var(std::uint32_t v);
  [[nodiscard]] Bdd nvar(std::uint32_t v);

  [[nodiscard]] Bdd ite(Bdd f, Bdd g, Bdd h);
  [[nodiscard]] Bdd apply_and(Bdd a, Bdd b) { return ite(a, b, Bdd::zero()); }
  [[nodiscard]] Bdd apply_or(Bdd a, Bdd b) { return ite(a, Bdd::one(), b); }
  [[nodiscard]] Bdd apply_xor(Bdd a, Bdd b);
  [[nodiscard]] Bdd apply_not(Bdd a) { return ite(a, Bdd::zero(), Bdd::one()); }
  [[nodiscard]] Bdd implies(Bdd a, Bdd b) { return ite(a, b, Bdd::one()); }
  [[nodiscard]] Bdd iff(Bdd a, Bdd b) { return ite(a, b, apply_not(b)); }

  /// a AND NOT b without materializing NOT b (the classic frontier-minus-
  /// visited step of reachability: `next \ reached`). With an index bound to a
  /// monotonically growing `b` (see ReachIndex), zero-difference subresults
  /// are remembered across calls and short-circuit future recursions.
  [[nodiscard]] Bdd apply_diff(Bdd a, Bdd b, ReachIndex* index = nullptr);

  /// True iff a implies b (a subseteq b as state sets). Creates no nodes —
  /// a pure recursive containment check for fixpoint-termination tests.
  [[nodiscard]] bool subset(Bdd a, Bdd b);

  /// Existential / universal quantification over a set of variable indices.
  [[nodiscard]] Bdd exists(Bdd f, std::span<const std::uint32_t> vars);
  [[nodiscard]] Bdd forall(Bdd f, std::span<const std::uint32_t> vars);

  /// Relational product: exists(vars, f & g) computed in one pass — the
  /// workhorse of image computation.
  [[nodiscard]] Bdd and_exists(Bdd f, Bdd g, std::span<const std::uint32_t> vars);

  /// Renames variables: index v -> perm[v] (perm must be a permutation and
  /// monotone w.r.t. the current *positions* on the support for correctness
  /// of this simple implementation; the encoder's cur<->next shift within an
  /// interleaved pair satisfies that, and pair-block sifting preserves it).
  [[nodiscard]] Bdd rename(Bdd f, std::span<const std::uint32_t> perm);

  /// One satisfying assignment (variable index -> bool) of a non-zero BDD;
  /// variables not in the support are set to false.
  [[nodiscard]] std::vector<bool> any_sat(Bdd f);

  /// Number of satisfying assignments over all num_vars() variables.
  [[nodiscard]] double sat_count(Bdd f);

  /// Nodes reachable from f (diagnostics / size metric).
  [[nodiscard]] std::size_t size(Bdd f);

  /// Total allocated nodes (diagnostics).
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  /// Evaluates under a full assignment (indexed by variable index).
  [[nodiscard]] bool eval(Bdd f, const std::vector<bool>& assignment) const;

  /// Installs a cooperative abort hook, polled every few thousand node
  /// creations (so deadlines bind even when a single apply blows up — the
  /// fixpoint loop's own polls never run if encode_predicate diverges first).
  /// When the hook returns true the in-flight operation throws AbortRequested;
  /// the manager stays structurally valid. The aborted operation never
  /// returned, so the nodes it created are unexported and the next sift
  /// collects them. Never fires mid-sift: reordering must complete
  /// atomically. Pass nullptr to clear.
  void set_abort_check(std::function<bool()> check) { abort_check_ = std::move(check); }

  // Node structure access (for traversals by the checker). level_of returns
  // the *variable index* of the node (stable across reorders). The children
  // become client handles, so they are exported like any operation result.
  [[nodiscard]] std::uint32_t level_of(Bdd f) const { return nodes_[f.id()].var; }
  [[nodiscard]] Bdd low_of(Bdd f) { return exported(Bdd(nodes_[f.id()].low)); }
  [[nodiscard]] Bdd high_of(Bdd f) { return exported(Bdd(nodes_[f.id()].high)); }

  // --- Dynamic variable reordering (sifting) ---------------------------------

  /// Enables/disables automatic reordering. `block_size` groups consecutive
  /// variable indices [k*block, (k+1)*block) into rigid blocks that move as a
  /// unit — the encoder uses blocks of 2 so interleaved cur/next bit pairs
  /// stay adjacent (which keeps its rename permutations position-monotone).
  /// Reordering runs only between top-level operations, never mid-recursion.
  void set_auto_reorder(bool enabled, std::uint32_t block_size = 1);
  [[nodiscard]] bool auto_reorder() const { return auto_reorder_; }

  /// Node-count threshold that arms the next automatic sift (doubles after
  /// each run so reordering cost stays amortized).
  void set_reorder_threshold(std::size_t nodes) { reorder_threshold_ = nodes; }

  /// Collects garbage, then runs one sifting pass immediately (regardless of
  /// thresholds).
  void reorder_now();

  /// Number of completed sifting passes (diagnostics / tests).
  [[nodiscard]] std::size_t reorder_runs() const { return reorder_runs_; }

  /// Swaps the variables at order positions `pos` and `pos+1`. Canonicity and
  /// every outstanding handle's meaning are preserved; nodes the swap orphans
  /// are collected unless exported. Exposed for tests.
  void swap_adjacent(std::uint32_t pos);

  /// Current order: variable index at each position (diagnostics / tests).
  [[nodiscard]] const std::vector<std::uint32_t>& order() const { return var_at_pos_; }

  /// Unique-table entries (excludes terminals). Right after a sift these are
  /// exactly the nodes reachable from exported ones; between sifts the table
  /// may also hold garbage that the next sift collects.
  [[nodiscard]] std::size_t table_nodes() const { return table_nodes_; }

 private:
  struct Node {
    std::uint32_t var;  // kTerminalVar for terminals and for collected holes
    std::uint32_t low;
    std::uint32_t high;
    // Number of *internal* parent edges; client handles are not counted.
    // Instead a node is `exported` once a public operation returns it, and it
    // stays so forever. Between operations, a node that is neither exported
    // nor has a parent can be named by no client handle and no other node,
    // only by computed-cache entries, so it is garbage (see collect()).
    std::uint32_t ref : 31 = 0;
    std::uint32_t exported : 1 = 0;
  };
  static constexpr std::uint32_t kTerminalVar = 0xffffffffu;
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;
  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  // Per-variable unique subtable: open-addressed, linear probing, no
  // tombstones (table_erase shifts the probe chain back instead). Slots hold
  // node ids; the key is (low, high).
  struct SubTable {
    std::vector<std::uint32_t> slots;
    std::size_t count = 0;
  };

  // Direct-mapped lossy computed-cache entry (ite and diff).
  struct CacheEntry {
    std::uint32_t a = kEmptySlot;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t r = 0;
  };

  Bdd make(std::uint32_t var, Bdd low, Bdd high);
  Bdd ite_rec(Bdd f, Bdd g, Bdd h);
  Bdd diff_rec(Bdd a, Bdd b, ReachIndex* index);
  bool subset_rec(Bdd a, Bdd b, std::unordered_set<std::uint64_t>& proven) const;

  [[nodiscard]] std::uint32_t pos_of_node(std::uint32_t id) const {
    const std::uint32_t v = nodes_[id].var;
    return v == kTerminalVar ? kNoPos : pos_of_var_[v];
  }

  void table_grow(std::uint32_t var);
  void table_insert(std::uint32_t var, std::uint32_t id);  // raw, assumes absent
  void table_erase(std::uint32_t var, std::uint32_t id);
  void ref_inc(std::uint32_t id) {
    if (id > 1) ++nodes_[id].ref;
  }
  // Drops one parent edge of `id`, collecting it if that orphans garbage.
  void release(std::uint32_t id) {
    if (id > 1 && --nodes_[id].ref == 0 && !nodes_[id].exported) collect(id);
  }
  // Marks `f` as handed to a client (see Node::exported).
  Bdd exported(Bdd f) {
    nodes_[f.id()].exported = 1;
    return f;
  }
  static std::size_t pair_hash(std::uint32_t low, std::uint32_t high);

  // Unlinks the garbage node `id` and, recursively, every child that it
  // leaves as garbage. Each id becomes a hole (kTerminalVar, low == high)
  // that no make() can match. Only ids born inside the running sift are
  // reused (free_ids_), so an id a ReachIndex mark or a cache entry holds
  // never comes to name a different node.
  void collect(std::uint32_t id);
  // Collects every garbage node in the unique table.
  void collect_garbage();
  // Drops computed-cache entries that mention a hole: a cached result naming
  // a collected id would hand a dead node back out.
  void purge_dead_cache_entries();
  [[nodiscard]] bool is_hole(std::uint32_t id) const {
    return id > 1 && nodes_[id].var == kTerminalVar;
  }

  void maybe_reorder();
  void maybe_grow_caches();
  void sift();
  // Moves the block at block-position p past the one at p+1.
  void swap_blocks(std::uint32_t block_pos);
  [[nodiscard]] std::uint32_t block_pos_of(std::uint32_t block) const;

  struct OpGuard;

  std::vector<Node> nodes_;
  std::vector<SubTable> tables_;        // one per variable
  std::vector<std::uint32_t> pos_of_var_;
  std::vector<std::uint32_t> var_at_pos_;
  std::vector<CacheEntry> ite_cache_;   // power-of-two, direct mapped
  std::vector<CacheEntry> diff_cache_;  // ditto, keyed (a, b)
  std::size_t table_nodes_ = 0;
  std::uint32_t num_vars_ = 0;

  static constexpr std::uint32_t kAbortPollInterval = 16384;
  std::function<bool()> abort_check_;
  std::uint32_t abort_countdown_ = kAbortPollInterval;
  bool auto_reorder_ = false;
  std::uint32_t block_size_ = 1;
  bool reordering_ = false;
  bool reorder_pending_ = false;
  std::size_t collected_ = 0;  // nodes collected so far
  // Ids born and collected within the running sift: no client, cache entry
  // or ReachIndex can have seen them, so make() may reuse them.
  std::uint32_t sift_first_id_ = 0;
  std::vector<std::uint32_t> free_ids_;
  std::size_t reorder_threshold_ = 4096;
  std::size_t reorder_runs_ = 0;
  int op_depth_ = 0;
};

}  // namespace verdict::bdd
