// Symbolic integer expressions for access-descriptor algebra.
//
// The descriptors in the paper contain non-affine entries such as
//   2^(L-1) * J,   P * 2^(-L),   (P-2) * 2^(-L) + 1
// so the engine works over a normal form that makes those canonical:
//
//   Expr      = sum of Monomials (sorted, like terms combined)
//   Monomial  = Rational coefficient
//             * product of Symbol^k factors (k >= 1, sorted by symbol)
//             * at most one pow2(e) factor, e an Expr whose constant term is
//               zero (integer constant parts of exponents are folded into the
//               rational coefficient: pow2(L-1) == (1/2) * pow2(L)).
//
// Parameters that the source declares as powers of two (P = 2^p in TFFT2)
// are canonicalized to pow2(logSymbol), which is what makes identities like
// 2^(p-1) == P/2 fall out of the normal form.
//
// Exprs are immutable values; all operations return new Exprs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/rational.hpp"

namespace ad::sym {

using SymbolId = std::uint32_t;

enum class SymbolKind {
  kParameter,      ///< runtime-constant problem parameter (P, Q, H, N, ...)
  kIndex,          ///< loop index variable
  kLog2Parameter,  ///< the exponent symbol of a power-of-two parameter
};

/// Registry of symbols. Each Expr is interpreted relative to one table.
class SymbolTable {
 public:
  /// Interns a plain parameter symbol (idempotent for the same name).
  SymbolId parameter(const std::string& name);
  /// Interns a loop-index symbol.
  SymbolId index(const std::string& name);
  /// Declares `name` to be a power-of-two parameter with exponent symbol
  /// `logName`; returns the id of the *log* symbol. Uses of the parameter
  /// should be built with Expr::pow2(symbol(log)) — see makeSymbolExpr.
  SymbolId pow2Parameter(const std::string& name, const std::string& logName);

  [[nodiscard]] std::optional<SymbolId> lookup(const std::string& name) const;
  [[nodiscard]] const std::string& name(SymbolId id) const;
  [[nodiscard]] SymbolKind kind(SymbolId id) const;
  /// For a log2 symbol, the name of the pow2 parameter it represents (e.g.
  /// "P" for p); empty if none.
  [[nodiscard]] const std::string& pow2ParamName(SymbolId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return infos_.size(); }

 private:
  struct Info {
    std::string name;
    SymbolKind kind;
    std::string pow2ParamName;  // only for kLog2Parameter
  };
  SymbolId intern(const std::string& name, SymbolKind kind);

  std::vector<Info> infos_;
  std::map<std::string, SymbolId> byName_;
};

class Expr;

/// One symbol raised to a positive integer power.
struct SymbolFactor {
  SymbolId id = 0;
  int power = 1;

  friend bool operator==(const SymbolFactor&, const SymbolFactor&) = default;
};

/// coeff * prod(sym^k) * pow2(exponent).
class Monomial {
 public:
  Monomial() = default;
  explicit Monomial(Rational coeff) : coeff_(coeff) {}

  [[nodiscard]] const Rational& coeff() const noexcept { return coeff_; }
  [[nodiscard]] const std::vector<SymbolFactor>& symbols() const noexcept { return symbols_; }
  [[nodiscard]] bool hasPow2() const noexcept { return pow2_ != nullptr; }
  /// The pow2 exponent (constant term is always zero). Requires hasPow2().
  [[nodiscard]] const Expr& pow2Exponent() const;
  [[nodiscard]] bool isConstant() const noexcept { return symbols_.empty() && !hasPow2(); }
  /// True if the two monomials have identical symbol/pow2 parts (coefficients
  /// may differ) — i.e. they are "like terms".
  [[nodiscard]] bool sameKey(const Monomial& other) const;
  /// Total order on keys for canonical sorting. Ignores coefficients.
  [[nodiscard]] int compareKey(const Monomial& other) const;

 private:
  friend class Expr;
  Rational coeff_ = Rational(0);
  std::vector<SymbolFactor> symbols_;       // sorted by id, powers >= 1
  std::shared_ptr<const Expr> pow2_;        // nullptr when absent
};

class Expr {
 public:
  /// Zero.
  Expr() = default;

  // -- constructors ---------------------------------------------------------
  [[nodiscard]] static Expr constant(std::int64_t value);
  [[nodiscard]] static Expr constant(Rational value);
  [[nodiscard]] static Expr symbol(SymbolId id);
  /// 2^exponent. The exponent's integer constant part is folded into the
  /// coefficient; pow2 of a pure constant becomes a rational constant.
  [[nodiscard]] static Expr pow2(const Expr& exponent);

  // -- queries --------------------------------------------------------------
  [[nodiscard]] bool isZero() const noexcept { return terms_.empty(); }
  [[nodiscard]] bool isConstant() const noexcept;
  /// The rational value if constant; nullopt otherwise.
  [[nodiscard]] std::optional<Rational> asConstant() const;
  /// The integer value if a constant integer; nullopt otherwise.
  [[nodiscard]] std::optional<std::int64_t> asInteger() const;
  /// The constant term of the sum (zero if none).
  [[nodiscard]] Rational constantTerm() const;
  [[nodiscard]] const std::vector<Monomial>& terms() const noexcept { return terms_; }
  /// All symbols appearing anywhere (including inside pow2 exponents).
  [[nodiscard]] std::vector<SymbolId> freeSymbols() const;
  [[nodiscard]] bool contains(SymbolId id) const;
  /// True if every monomial coefficient is an integer.
  [[nodiscard]] bool hasIntegerCoefficients() const;

  // -- arithmetic -----------------------------------------------------------
  [[nodiscard]] Expr operator-() const;
  friend Expr operator+(const Expr& a, const Expr& b);
  friend Expr operator-(const Expr& a, const Expr& b);
  friend Expr operator*(const Expr& a, const Expr& b);
  Expr& operator+=(const Expr& o) { return *this = *this + o; }
  Expr& operator-=(const Expr& o) { return *this = *this - o; }
  Expr& operator*=(const Expr& o) { return *this = *this * o; }

  /// Exact division: returns a/b when the quotient exists in the monomial
  /// algebra (multivariate division; pow2 parts always divide). nullopt if
  /// the division is not exact.
  [[nodiscard]] static std::optional<Expr> divideExact(const Expr& a, const Expr& b);

  /// Structural equality of normal forms.
  friend bool operator==(const Expr& a, const Expr& b);
  friend bool operator!=(const Expr& a, const Expr& b) { return !(a == b); }
  /// Total order (for use as map keys); consistent with ==.
  [[nodiscard]] int compare(const Expr& other) const;
  friend bool operator<(const Expr& a, const Expr& b) { return a.compare(b) < 0; }

  // -- substitution & evaluation ---------------------------------------------
  /// Replace every occurrence of `id` (including inside exponents) by `value`.
  [[nodiscard]] Expr substitute(SymbolId id, const Expr& value) const;
  [[nodiscard]] Expr substitute(const std::map<SymbolId, Expr>& bindings) const;
  /// Numeric evaluation. Every free symbol must be bound. The result can be
  /// rational (e.g. P*2^-L before the algebra cancels); callers that need an
  /// integer should check. Throws AnalysisError on unbound symbols.
  [[nodiscard]] Rational evaluate(const std::map<SymbolId, std::int64_t>& bindings) const;

  /// Decompose as a*sym + b with a and b free of `sym`. Fails if `sym` occurs
  /// non-linearly or inside a pow2 exponent.
  [[nodiscard]] std::optional<std::pair<Expr, Expr>> linearDecompose(SymbolId sym) const;

  /// Render using `table` for symbol names. Power-of-two parameters print as
  /// the parameter name where possible (pow2(p) -> "P").
  [[nodiscard]] std::string str(const SymbolTable& table) const;

 private:
  friend class Monomial;
  void addMonomial(Monomial m);
  void normalizeSort();
  [[nodiscard]] static std::optional<Monomial> divideMonomial(const Monomial& a,
                                                              const Monomial& b);
  static Monomial mulMonomial(const Monomial& a, const Monomial& b);
  static int compareMonomialKey(const Monomial& a, const Monomial& b);

  std::vector<Monomial> terms_;  // sorted by key, nonzero coeffs, unique keys
};

/// Convenience: an Expr for a named symbol, resolving pow2 parameters — if
/// `name` was declared via pow2Parameter this returns pow2(log) rather than a
/// plain symbol. Interns plain parameters on demand when `internIfMissing`.
[[nodiscard]] Expr makeSymbolExpr(SymbolTable& table, const std::string& name,
                                  bool internIfMissing = false);

}  // namespace ad::sym
