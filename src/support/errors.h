// Typed failure taxonomy (DESIGN.md "Fault injection & round-level
// recovery").
//
// Two disjoint error surfaces:
//   * programming-invariant violations keep throwing REPRO_CHECK's
//     std::logic_error (support/check.h) — they indicate a bug and are never
//     caught by recovery code;
//   * runtime conditions — machine failures, exhausted retries, budget
//     escalation, invalid queries — derive from Error below (a
//     std::runtime_error), so callers can catch exactly the class they can
//     handle: the round barrier retries MachineFailedError, the algorithm
//     layer degrades on BudgetExceededError.
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
// Metrics::budget_violations). Deterministic for a given schedule, so the
// barrier never retries it — the algorithm layer degrades instead (larger
// eps => bigger machines => fewer of them).
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

// A virtual machine failed mid-round — injected by a FaultPlan or thrown by
// a machine body. The runtime treats it as transient: the round's staged
// writes are discarded (committed H_{i-1} state is untouched by
// construction) and the round replays under RetryPolicy.
class MachineFailedError : public Error {
 public:
  MachineFailedError(std::uint64_t round, std::uint64_t machine,
                     const std::string& cause)
      : Error("machine " + std::to_string(machine) + " failed in round " +
              std::to_string(round) + ": " + cause),
        round_(round),
        machine_(machine) {}

  [[nodiscard]] std::uint64_t round() const { return round_; }
  [[nodiscard]] std::uint64_t machine() const { return machine_; }

 private:
  std::uint64_t round_;
  std::uint64_t machine_;
};

// A round kept failing past RetryPolicy::max_attempts. The last attempt's
// failure message rides along as the cause: the lowest-numbered failing
// machine's, at every pool width (ThreadPool::parallel_for).
class RetriesExhaustedError : public Error {
 public:
  RetriesExhaustedError(const std::string& label, std::uint64_t round,
                        std::uint32_t attempts, const std::string& cause)
      : Error("round '" + label + "' (index " + std::to_string(round) +
              ") failed all " + std::to_string(attempts) +
              " attempts: " + cause),
        round_(round),
        attempts_(attempts) {}

  [[nodiscard]] std::uint64_t round() const { return round_; }
  [[nodiscard]] std::uint32_t attempts() const { return attempts_; }

 private:
  std::uint64_t round_;
  std::uint32_t attempts_;
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

// Failure in the standalone IPC primitives (src/transport/): a malformed or
// truncated wire frame, or a shared-memory ring that cannot be created,
// attached or drained.
class TransportError : public Error {
 public:
  using Error::Error;
};

}  // namespace ampccut
