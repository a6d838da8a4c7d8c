// Symbolic range analysis.
//
// Descriptor simplification (stride coalescing subsumption), stride-sign
// determination (the lambda vectors), and the locality conditions all need
// questions of the form "is expr >= 0 for every point of the loop
// polyhedron?" answered conservatively. The analyzer eliminates loop-index
// symbols by substituting their (possibly coupled, non-rectangular) bounds
// monotonically, then decides signs monomial-wise; parameters can carry
// default positivity assumptions (P, Q, H >= 1).
//
// All answers are sound but incomplete: "unknown" (nullopt / false) means the
// property could not be proved, never that it is false.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "symbolic/expr.hpp"

namespace ad::sym {

class ProofMemoContext;
class InternedExpr;

/// Per-symbol interval assumptions. Bounds are Exprs and may reference other
/// symbols (e.g. the TFFT2 J loop has upper bound P*2^-L - 1, which mentions
/// the outer index L).
class Assumptions {
 public:
  explicit Assumptions(const SymbolTable& table) : table_(&table) {}

  void setLower(SymbolId id, Expr lo) {
    memoKey_.reset();
    ranges_[id].lo = std::move(lo);
  }
  void setUpper(SymbolId id, Expr hi) {
    memoKey_.reset();
    ranges_[id].hi = std::move(hi);
  }
  void setRange(SymbolId id, Expr lo, Expr hi) {
    setLower(id, std::move(lo));
    setUpper(id, std::move(hi));
  }
  void clear(SymbolId id) {
    memoKey_.reset();
    ranges_.erase(id);
  }

  /// Registers a fact "expr >= 0" (e.g. loop non-emptiness: upper - lower).
  void addFact(Expr nonNegative) {
    memoKey_.reset();
    facts_.push_back(std::move(nonNegative));
  }
  [[nodiscard]] const std::vector<Expr>& facts() const noexcept { return facts_; }

  /// Effective lower bound for a symbol: explicit assumption if present,
  /// otherwise the kind-based default (indices >= 0; parameters and log2
  /// exponents >= 1).
  [[nodiscard]] std::optional<Expr> lower(SymbolId id) const;
  [[nodiscard]] std::optional<Expr> upper(SymbolId id) const;

  [[nodiscard]] const SymbolTable& table() const noexcept { return *table_; }

  /// Exact serialization of everything a RangeAnalyzer reads from this set,
  /// plus its hash — the proof-memo registry key. Built lazily on first use
  /// and cached (every mutator invalidates it), so repeated memo probes over
  /// the same assumptions allocate nothing. Copies share the cache; the lazy
  /// build is unsynchronized, matching how Assumptions are used everywhere
  /// (constructed and queried within one task, never mutated concurrently).
  struct MemoKey {
    std::string text;
    std::uint64_t hash = 0;
  };
  [[nodiscard]] const MemoKey& memoKey() const;

 private:
  struct Range {
    std::optional<Expr> lo;
    std::optional<Expr> hi;
  };
  const SymbolTable* table_;
  std::map<SymbolId, Range> ranges_;
  std::vector<Expr> facts_;
  mutable std::shared_ptr<const MemoKey> memoKey_;
};

class RangeAnalyzer {
 public:
  /// When the process-wide ProofMemo is enabled, the analyzer attaches to the
  /// shared cache for this assumptions context: public queries are answered
  /// from the memo when possible, and misses are computed from fresh scratch
  /// state with the full depth budget before being published — making every
  /// cached answer a pure function of (assumptions, query), identical at any
  /// thread count. With the memo disabled this is exactly the legacy
  /// accumulate-as-you-go analyzer.
  explicit RangeAnalyzer(const Assumptions& assumptions);

  /// Sound upper/lower bound of `e` over the assumed ranges, eliminating only
  /// loop-index symbols; the result is an Expr over the remaining symbols
  /// (typically parameters). nullopt when monotonicity cannot be established.
  [[nodiscard]] std::optional<Expr> upperBoundExpr(const Expr& e) const;
  [[nodiscard]] std::optional<Expr> lowerBoundExpr(const Expr& e) const;

  /// Provable sign of `e` over all assumed ranges: -1, 0, or +1; nullopt when
  /// undetermined (including genuinely sign-varying expressions).
  [[nodiscard]] std::optional<int> sign(const Expr& e) const;

  [[nodiscard]] bool proveNonNegative(const Expr& e) const;
  [[nodiscard]] bool proveNonPositive(const Expr& e) const;
  [[nodiscard]] bool provePositive(const Expr& e) const;

  /// a <= b provable?
  [[nodiscard]] bool proveLE(const Expr& a, const Expr& b) const {
    return proveNonNegative(b - a);
  }
  [[nodiscard]] bool proveLT(const Expr& a, const Expr& b) const { return provePositive(b - a); }

  /// True if `e` provably takes integer values at every integer point of the
  /// domain: integer-coefficient monomials, and fractional powers of two are
  /// compensated by provably-nonnegative pow2 exponents (so (1/2)*pow2(L) is
  /// integer-valued when L >= 1).
  [[nodiscard]] bool proveIntegerValued(const Expr& e) const;

  // Interned-handle entry points. Identical answers to the Expr overloads,
  // but the memo probe is one cached-hash read plus pointer compares, and a
  // caller that queries the same expression more than once (or through
  // several predicates) interns it exactly once. Handles must be non-null
  // (obtained from ExprIntern::global().intern); with the memo detached
  // these compute directly on the handle's canonical Expr.
  [[nodiscard]] std::optional<Expr> upperBoundExpr(const InternedExpr& e) const;
  [[nodiscard]] std::optional<Expr> lowerBoundExpr(const InternedExpr& e) const;
  [[nodiscard]] std::optional<int> sign(const InternedExpr& e) const;
  [[nodiscard]] bool proveNonNegative(const InternedExpr& e) const;
  [[nodiscard]] bool provePositive(const InternedExpr& e) const;
  [[nodiscard]] bool proveIntegerValued(const InternedExpr& e) const;

 private:
  enum class Mode { kLower, kUpper };
  static constexpr int kMaxDepth = 24;

  /// Effective depth budget: the thread's ad::support::Budget cap when one is
  /// installed, kMaxDepth otherwise.
  [[nodiscard]] static int maxDepth();

  /// Disproof by witness evaluation: true when a verified feasible integer
  /// point has e < 0 (strictWitness, refuting e >= 0) or e <= 0 (refuting
  /// e > 0). The prover is sound, so a disproved claim is exactly one the
  /// full search would also answer false — this is a shortcut, never a
  /// change of verdict. Used on shared-memo misses before the search runs.
  [[nodiscard]] bool disproveByWitness(const Expr& e, bool strictWitness) const;
  /// Marks the start of a public query; returns (and clears) the thread's
  /// "interrupted" flag so nested public queries compose.
  static bool beginQuery();
  /// True when the query since beginQuery() was interrupted (budget/fault);
  /// re-raises `previouslyInterrupted` for the enclosing query. Interrupted
  /// answers stay Unknown-conservative but are never published to the memo.
  static bool queryInterrupted(bool previouslyInterrupted);

  [[nodiscard]] std::optional<Expr> bound(const Expr& e, Mode mode, bool indicesOnly,
                                          int depth) const;
  [[nodiscard]] std::optional<Expr> boundEliminating(const Expr& e, SymbolId victim, Mode mode,
                                                     bool indicesOnly, int depth) const;
  [[nodiscard]] std::optional<int> signImpl(const Expr& e, int depth) const;
  [[nodiscard]] bool proveNNImpl(const Expr& e, int depth) const;
  [[nodiscard]] bool provePosImpl(const Expr& e, int depth) const;
  [[nodiscard]] bool integerValuedImpl(const Expr& e) const;

  /// Drops the per-analyzer scratch caches so a memo-miss computation starts
  /// from a clean slate (see the constructor comment).
  void resetScratch() const;

  // Proof caches, keyed by the queried expression. Caching "true" is sound;
  // caching "false" (= not proven) can only make the analysis more
  // conservative when a deeper budget would have succeeded, never unsound.
  // The caches also collapse the fact-combination search (e - f1 - f2 and
  // e - f2 - f1 are the same normal form).
  mutable std::map<Expr, bool> nnCache_;
  mutable std::map<Expr, bool> posCache_;

  struct BoundKey {
    Expr expr;
    bool upper;
    bool indicesOnly;
    bool operator<(const BoundKey& o) const {
      if (upper != o.upper) return upper < o.upper;
      if (indicesOnly != o.indicesOnly) return indicesOnly < o.indicesOnly;
      return expr.compare(o.expr) < 0;
    }
  };
  mutable std::map<BoundKey, std::optional<Expr>> boundCache_;
  [[nodiscard]] bool monomialNonNegative(const Monomial& m, int depth) const;
  [[nodiscard]] bool monomialPositive(const Monomial& m, int depth) const;
  [[nodiscard]] bool symbolNonNegative(SymbolId id, int depth) const;
  [[nodiscard]] bool symbolPositive(SymbolId id, int depth) const;

  const Assumptions* asm_;
  std::shared_ptr<ProofMemoContext> memo_;  ///< null when the memo is disabled
};

}  // namespace ad::sym
