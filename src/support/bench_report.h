// Machine-readable benchmark reporting: the schema behind the repo-level
// perf trajectory files BENCH_ampc.json / BENCH_exact.json.
//
// Every bench binary owns one BenchReporter per suite and appends one
// BenchResult per measured configuration; `tools/run_benches` collects the
// per-suite documents and merges them per group into the trajectory files.
// The schema ("ampc-cut-bench-v1") is documented in BENCHMARKS.md; change it
// only by bumping the version string, the trajectory is diffed across PRs.
//
// Lives in support (not bench/) so the gtest suite test_bench_json.cpp and
// the tools/ layer can link it; the model-metric fill helpers that need the
// ampc/mpc runtimes stay in bench/bench_util.h to keep support at the bottom
// of the layer DAG.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.h"

namespace ampccut::bench {

inline constexpr const char* kBenchSchema = "ampc-cut-bench-v1";

// One measured configuration of one benchmark.
//
// `group` routes the result into a trajectory file: "ampc" for anything
// priced in model rounds / DHT words (AMPC and the MPC baseline), "exact"
// for the sequential engines (Stoer-Wagner, oracle trackers, serving).
// Model counters are zero for exact-group results.
struct BenchResult {
  std::string name;
  std::string group = "ampc";
  std::map<std::string, std::int64_t> params;  // sweep point, e.g. {n: 1024}

  // Wall clock.
  double ns_per_op = 0.0;
  std::uint64_t iterations = 0;  // timed repetitions behind ns_per_op

  // Model costs (see DESIGN.md round-accounting policy).
  std::uint64_t model_rounds = 0;  // measured + charged
  std::uint64_t measured_rounds = 0;
  std::uint64_t charged_rounds = 0;
  std::uint64_t dht_read_words = 0;
  std::uint64_t dht_write_words = 0;
  std::uint64_t max_machine_traffic = 0;
  std::uint64_t peak_table_words = 0;
  std::uint64_t budget_violations = 0;

  // Bench-specific scalars (approximation ratios, heights, probabilities...).
  std::map<std::string, double> extra;
};

class BenchReporter {
 public:
  explicit BenchReporter(std::string suite) : suite_(std::move(suite)) {}

  [[nodiscard]] const std::string& suite() const { return suite_; }
  [[nodiscard]] const std::vector<BenchResult>& results() const {
    return results_;
  }

  void add(BenchResult r) { results_.push_back(std::move(r)); }

  // The per-suite document: {schema, suite, results: [...]}.
  [[nodiscard]] json::Value to_json() const;

  // Writes to_json() to `path` (2-space indent, trailing newline). Returns
  // false on IO failure.
  bool write_file(const std::string& path) const;

 private:
  std::string suite_;
  std::vector<BenchResult> results_;
};

// Parses a per-suite document back into results. Returns false and fills
// *error when the document does not conform to the schema.
bool parse_suite(const json::Value& doc, std::string* suite,
                 std::vector<BenchResult>* results, std::string* error);

// Merges per-suite documents into one trajectory document for `group`,
// keeping only results of that group and dropping suites left empty:
// {schema, generated_by, group, suites: [...]}.
json::Value merge_suites(const std::vector<json::Value>& suite_docs,
                         const std::string& group);

// Validates either document shape (per-suite or merged trajectory).
// Returns an empty string when valid, else a description of the first
// violation.
std::string validate_bench_json(const json::Value& doc);

}  // namespace ampccut::bench
