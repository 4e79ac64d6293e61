// Typed failure taxonomy.
//
// Two disjoint error surfaces:
//   * programming-invariant violations keep throwing REPRO_CHECK's
//     std::logic_error (support/check.h) — they indicate a bug and are never
//     caught by recovery code;
//   * runtime conditions — budget escalation, invalid queries — derive from
//     Error below (a std::runtime_error), so callers can catch exactly the
//     class they can handle: the algorithm layer degrades on
//     BudgetExceededError, the serving tier reports InvalidQueryError.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ampccut {

// Root of the taxonomy. Catching `Error` means "any recoverable runtime
// condition"; REPRO_CHECK failures deliberately do not pass through it.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A machine's per-round DHT traffic exceeded its O(n^eps) budget under
// Config::strict_budget (the default mode only counts the violation in
// Metrics::budget_violations). Deterministic for a given schedule; the
// algorithm layer degrades on it (larger eps => bigger machines => fewer of
// them).
class BudgetExceededError : public Error {
 public:
  BudgetExceededError(const std::string& label, std::uint64_t machine,
                      std::uint64_t traffic, std::uint64_t budget)
      : Error("machine budget exceeded in round '" + label + "': machine " +
              std::to_string(machine) + " moved " + std::to_string(traffic) +
              " words against a budget of " + std::to_string(budget)),
        machine_(machine),
        traffic_(traffic),
        budget_(budget) {}

  [[nodiscard]] std::uint64_t machine() const { return machine_; }
  [[nodiscard]] std::uint64_t traffic() const { return traffic_; }
  [[nodiscard]] std::uint64_t budget() const { return budget_; }

 private:
  std::uint64_t machine_;
  std::uint64_t traffic_;
  std::uint64_t budget_;
};

// A cut query that cannot be answered: an endpoint outside the structure's
// vertex range, or s == t (no separating cut exists). Thrown by
// GomoryHuTree::min_cut and the serving tier (src/serve/) instead of a
// REPRO_CHECK abort: query arguments arrive from callers outside the library
// (ultimately from users of a serving deployment), so a bad pair is a runtime
// condition to report, not a programming-invariant violation.
class InvalidQueryError : public Error {
 public:
  InvalidQueryError(const std::string& what, std::uint64_t s, std::uint64_t t)
      : Error("invalid cut query (" + std::to_string(s) + ", " +
              std::to_string(t) + "): " + what),
        s_(s),
        t_(t) {}

  [[nodiscard]] std::uint64_t s() const { return s_; }
  [[nodiscard]] std::uint64_t t() const { return t_; }

 private:
  std::uint64_t s_;
  std::uint64_t t_;
};

}  // namespace ampccut
