// repro_lint — the repo's determinism & cost-accounting static-analysis pass
// (DESIGN.md "Static analysis & invariant enforcement").
//
// A dependency-free token/regex-level scanner over the project sources that
// mechanizes the invariants the determinism contract rests on. It is not a
// compiler: it strips comments and string literals, then pattern-matches the
// remaining code text. Each check errs on the side of flagging; the inline
// escape hatch
//
//     // repro-lint: allow(<check>) <justification>
//
// suppresses a finding on the same line (trailing comment) or, when the
// directive line holds no code, on the next line that does. The
// justification is mandatory — an empty one is itself a finding — and a
// directive that suppresses nothing is reported too, so the allowlist can
// never silently rot.
//
// Checks (ids are what allow(...) takes):
//   raw-sort            std::sort / std::stable_sort / std::partial_sort /
//                       std::ranges::sort / qsort outside src/support/psort.*
//                       — every host-side sort must go through the psort
//                       layer, whose stability supplies the id tie-break the
//                       determinism contract requires.
//   iteration-order     range-for over a std::unordered_map/unordered_set in
//                       src/ — hash iteration order is
//                       implementation-defined; only commutative
//                       accumulations may be allowlisted.
//   rng-discipline      rand()/srand(), std::random_device, std::mt19937 &
//                       friends, or time-derived seeding outside
//                       src/support/rng.h — all randomness flows from the
//                       explicit-seed Rng.
//   comparator-tiebreak two-argument comparator lambdas whose body compares
//                       a single projected field (`a.w < b.w`,
//                       `clock[a] < clock[b]`) — the (weight,id)/(time,id)
//                       fragility class; safe only under a stable sort, which
//                       is what the allowlist justification must say.
//   dcheck-side-effect  REPRO_DCHECK whose argument mutates state (++/--,
//                       assignment, known-mutating calls) — NDEBUG compiles
//                       the expression out, silently changing behavior.
//   weight-add          `+=` in src/ on a name declared `Weight` or
//                       `std::vector<Weight>` in the same file — a
//                       kInfiniteWeight operand wraps the sum; use sat_add.
//   bad-allow           malformed directive: unknown check id or missing
//                       justification.
//   unused-allow        well-formed directive that suppressed nothing.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/json.h"

namespace ampccut::lint {

// Check ids, in report order. bad-allow/unused-allow are meta-checks emitted
// by the directive machinery rather than source scans.
inline constexpr std::string_view kRawSort = "raw-sort";
inline constexpr std::string_view kIterationOrder = "iteration-order";
inline constexpr std::string_view kRngDiscipline = "rng-discipline";
inline constexpr std::string_view kComparatorTiebreak = "comparator-tiebreak";
inline constexpr std::string_view kDcheckSideEffect = "dcheck-side-effect";
inline constexpr std::string_view kWeightAdd = "weight-add";
inline constexpr std::string_view kBadAllow = "bad-allow";
inline constexpr std::string_view kUnusedAllow = "unused-allow";

inline constexpr std::string_view kAllChecks[] = {
    kRawSort,         kIterationOrder,    kRngDiscipline,
    kComparatorTiebreak, kDcheckSideEffect, kWeightAdd,
    kBadAllow,        kUnusedAllow,
};

struct Finding {
  std::string check;    // one of kAllChecks
  std::string file;     // path as passed to scan_file (root-relative in walks)
  int line = 0;         // 1-based line of the offending construct's start
  std::string message;  // human-readable explanation
  std::string snippet;  // the offending source line, whitespace-trimmed
};

struct AllowEntry {
  std::string check;
  std::string file;
  int line = 0;  // line of the suppressed construct, not of the directive
  std::string justification;
};

struct Report {
  std::vector<Finding> findings;    // non-allowlisted: each one fails the lint
  std::vector<AllowEntry> allowed;  // suppressed findings, with justification
  int files_scanned = 0;

  // repro-lint-v1 document: schema/files_scanned/finding_count/allowed_count,
  // per-check counts (every check id present, zeros included), findings[],
  // allowed[].
  [[nodiscard]] json::Value to_json() const;
};

// Strips //, /* */ (multi-line), string/char literals, and raw strings from
// `source`, replacing them with spaces so byte offsets and line numbers are
// preserved. Exposed for tests.
[[nodiscard]] std::string strip_comments_and_strings(std::string_view source);

// Scans one file's contents. `path` drives per-path exemptions (psort.* for
// raw-sort, rng.h for rng-discipline, src/-scoping for iteration-order and
// weight-add) and is copied into findings verbatim; use '/' separators.
void scan_file(const std::string& path, std::string_view contents,
               Report& report);

// Walks `subdirs` (those that exist) under `root`, scanning every
// .h/.hpp/.cpp/.cc file, skipping any directory named "lint_fixtures".
// Paths in the report are root-relative. Returns false (with *error set)
// when root or every listed subdir is missing, or on filesystem errors.
bool scan_tree(const std::string& root, const std::vector<std::string>& subdirs,
               Report& report, std::string* error);

// The default scan roots: src, tests, bench, examples.
[[nodiscard]] std::vector<std::string> default_subdirs();

}  // namespace ampccut::lint
