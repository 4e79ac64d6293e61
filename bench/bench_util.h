// Shared helpers for the experiment binaries: aligned-table printing, CLI
// flags, a small wall-clock timing harness, and the glue that turns runtime
// metrics into the machine-readable BENCH_*.json trajectory entries
// (support/bench_report.h; schema documented in BENCHMARKS.md).
//
// Every bench prints its human-readable tables (one per experiment, each
// header citing the paper claim it exercises) AND appends one
// BenchResult per sweep point to a BenchReporter; `--json <path>` writes the
// suite document, `--smoke` shrinks sweeps for CI, `--full` grows them for
// the recorded experiments.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ampc/runtime.h"
#include "mpc/runtime.h"
#include "support/bench_report.h"

namespace ampccut::bench {

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Value of "--opt value"; nullptr when the flag is absent OR present as the
// last token with no value to read (never index past argv). Callers that
// must distinguish "absent" from "valueless" pair this with has_flag and
// fail with a usage message — see threads_of and finish below.
inline const char* arg_value(int argc, char** argv, const char* opt) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], opt) == 0) {
      return i + 1 < argc ? argv[i + 1] : nullptr;
    }
  }
  return nullptr;
}

// The three sweep sizes every bench understands. --smoke wins over --full.
enum class Mode { kSmoke, kDefault, kFull };

inline Mode mode_of(int argc, char** argv) {
  if (has_flag(argc, argv, "--smoke")) return Mode::kSmoke;
  if (has_flag(argc, argv, "--full")) return Mode::kFull;
  return Mode::kDefault;
}

// "--threads N" for the solver benches: recursion-driver parallelism
// (ApproxMinCutOptions::threads). Absent = 0 = hardware concurrency;
// 1 recovers the exact sequential execution path. Thread count never
// changes results, only wall time.
inline std::uint32_t threads_of(int argc, char** argv) {
  const char* v = arg_value(argc, argv, "--threads");
  if (v == nullptr) {
    if (has_flag(argc, argv, "--threads")) {
      std::fprintf(stderr,
                   "bench_util: --threads given without a value; usage: "
                   "--threads N (falling back to 0 = hardware concurrency)\n");
    }
    return 0;
  }
  return static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
}

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) widths_.push_back(h.size());
  }

  void add_row(const std::vector<std::string>& cells) {
    rows_.push_back(cells);
    for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
  }

  void print() const {
    print_row(headers_);
    std::string sep;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      sep += std::string(widths_[i], '-');
      if (i + 1 < headers_.size()) sep += "-+-";
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  void print_row(const std::vector<std::string>& cells) const {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::string c = cells[i];
      c.resize(widths_[i], ' ');
      line += c;
      if (i + 1 < cells.size()) line += " | ";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Timing harness. Deliberately simple: `warmup` untimed runs, `reps` timed
// runs, report the MINIMUM per-op time (the standard microbench estimator —
// noise on a shared machine is strictly additive). BENCHMARKS.md discusses
// the caveats (no pinning, wall clock, single box).

struct TimingOptions {
  int warmup = 1;
  int reps = 5;
};

inline TimingOptions timing_for(Mode mode) {
  TimingOptions t;
  if (mode == Mode::kSmoke) {
    t.warmup = 1;
    t.reps = 2;
  } else if (mode == Mode::kFull) {
    t.warmup = 2;
    t.reps = 9;
  }
  return t;
}

struct Timed {
  double ns_per_op = 0.0;      // min over reps, divided by ops_per_rep
  std::uint64_t iterations = 0;  // timed reps behind the estimate
};

// Single coarse measurement for the macro benches (one solver run is the
// op; repetition would multiply already-long experiment sweeps).
template <class F>
double time_once_ns(F&& body) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  body();
  const auto t1 = clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

template <class F>
Timed run_timed(std::uint64_t ops_per_rep, const TimingOptions& opt, F&& body) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < opt.warmup; ++i) body();
  double best_ns = 0.0;
  for (int i = 0; i < opt.reps; ++i) {
    const auto t0 = clock::now();
    body();
    const auto t1 = clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    if (i == 0 || ns < best_ns) best_ns = ns;
  }
  Timed out;
  out.iterations = static_cast<std::uint64_t>(opt.reps);
  out.ns_per_op =
      best_ns / static_cast<double>(std::max<std::uint64_t>(1, ops_per_rep));
  return out;
}

// ---------------------------------------------------------------------------
// Metric glue: copy model costs out of a runtime into a trajectory entry.

inline void fill_model_metrics(BenchResult& r, const ampc::Metrics& m) {
  r.measured_rounds = m.rounds;
  r.charged_rounds = m.charged_rounds;
  r.model_rounds = m.model_rounds();
  r.dht_read_words = m.dht_reads;
  r.dht_write_words = m.dht_writes;
  r.max_machine_traffic = m.max_machine_traffic;
  r.peak_table_words = m.peak_table_words;
  r.budget_violations = m.budget_violations.load();
}

// The MPC baseline prices communication in shipped message words; they land
// in the write column (a message is a remote write) so the two models stay
// comparable in one schema.
inline void fill_model_metrics(BenchResult& r, const mpc::Metrics& m) {
  r.measured_rounds = m.rounds;
  r.model_rounds = m.model_rounds();
  r.dht_write_words = m.messages;
  r.max_machine_traffic = m.max_machine_recv;
}

// Writes the suite document when --json <path> was given. Returns the exit
// code for main(): IO failure is a bench failure, and so is a --json flag
// with no path (the caller asked for output we cannot deliver).
inline int finish(int argc, char** argv, const BenchReporter& reporter) {
  const char* path = arg_value(argc, argv, "--json");
  if (!path) {
    if (has_flag(argc, argv, "--json")) {
      std::fprintf(stderr,
                   "bench_util: --json given without a path; usage: "
                   "--json <file>\n");
      return 1;
    }
    return 0;
  }
  if (!reporter.write_file(path)) {
    std::fprintf(stderr, "bench_util: failed to write %s\n", path);
    return 1;
  }
  std::printf("\n[%s] wrote %zu results to %s\n", reporter.suite().c_str(),
              reporter.results().size(), path);
  return 0;
}

}  // namespace ampccut::bench
