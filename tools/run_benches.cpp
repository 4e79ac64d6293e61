// run_benches — the standing benchmark driver behind the repo's perf
// trajectory. Runs every bench binary with --json, validates each per-suite
// document against the ampc-cut-bench-v1 schema, and merges them into the
// two top-level trajectory files:
//
//   BENCH_ampc.json   model-priced results (AMPC simulator + MPC baseline)
//   BENCH_exact.json  wall-clock results of the sequential engines
//
// Usage (from the repo root, after building into build/):
//   ./build/tools/run_benches [--smoke|--full] [--bench-dir build/bench]
//                             [--out-dir .] [--only <suite-substring>]
//                             [--threads N]
//
// --threads is forwarded to every bench (recursion-driver parallelism;
// 0/absent = hardware concurrency, 1 = the sequential path). Thread count
// changes only ns_per_op, never results.
//
// --only runs and validates the matching suites but never rewrites the
// trajectory files (a partial run must not clobber the other suites' data).
//
// Each bench runs under a per-binary timeout (--timeout <secs>, default 900,
// 0 disables) via timeout(1) and gets exactly one retry on any failure —
// a transient wedge (loaded CI host, kernel hiccup) should not scrap an
// hour-long trajectory run, but a reproducible failure must still fail.
//
// Exit is non-zero when a bench fails to run twice, emits malformed or
// schema-violating JSON, or a trajectory file fails to re-parse after
// writing — CI's bench-smoke job relies on that contract.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#ifdef __unix__
#include <sys/wait.h>
#endif

#include "support/bench_report.h"
#include "support/json.h"

namespace fs = std::filesystem;
using ampccut::json::Value;

namespace {

const char* kBenches[] = {
    "bench_micro_primitives",
    "bench_e1_mincut_rounds",
    "bench_e2_decomposition",
    "bench_e3_singleton",
    "bench_e4_kcut",
    "bench_e5_contraction_probability",
    "bench_e6_structure",
    "bench_e7_one_vs_two_cycles",
    "bench_e8_mpc_kcut",
    "bench_a1_ablation",
    "bench_serve_queries",
};

// Single-quote a path for the shell (embedded quotes become '\'').
std::string sh_quote(const fs::path& p) {
  std::string out = "'";
  for (const char c : p.string()) {
    if (c == '\'') out += "'\\''";
    else out += c;
  }
  out += "'";
  return out;
}

// Value of "--opt value", or `fallback` when absent. A flag given as the
// last token (no value to read) is an argument error: exit loudly instead of
// silently using the fallback — a typo'd invocation must not overwrite the
// trajectory files with an unintended configuration.
const char* arg_value(int argc, char** argv, const char* opt,
                      const char* fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], opt) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "run_benches: %s given without a value\n", opt);
        std::exit(1);
      }
      return argv[i + 1];
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Run one bench command, decoding std::system's waitpid-style status into a
// human-readable failure description. Returns true on exit status 0.
// timeout(1) exits 124 when it had to kill the bench — call that out
// explicitly so a hung bench reads differently from a crashed one.
bool run_bench_cmd(const std::string& cmd, const char* name,
                   std::string* failure) {
  std::printf("=== %s ===\n", cmd.c_str());
  std::fflush(stdout);
  const int rc = std::system(cmd.c_str());
  if (rc == 0) return true;
  char buf[256];
#ifdef __unix__
  if (WIFEXITED(rc) && WEXITSTATUS(rc) == 124) {
    std::snprintf(buf, sizeof(buf), "%s timed out (timeout(1) exit 124)",
                  name);
  } else if (WIFSIGNALED(rc)) {
    std::snprintf(buf, sizeof(buf), "%s killed by signal %d", name,
                  WTERMSIG(rc));
  } else {
    std::snprintf(buf, sizeof(buf), "%s exited with status %d", name,
                  WIFEXITED(rc) ? WEXITSTATUS(rc) : rc);
  }
#else
  std::snprintf(buf, sizeof(buf), "%s exited with status %d", name, rc);
#endif
  *failure = buf;
  return false;
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Parse + schema-validate one document; exits the process on violation.
Value load_validated(const fs::path& path, const std::string& origin) {
  const auto text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "run_benches: cannot read %s (from %s)\n",
                 path.c_str(), origin.c_str());
    std::exit(1);
  }
  std::string parse_err;
  std::optional<Value> doc = Value::parse(*text, &parse_err);
  if (!doc) {
    std::fprintf(stderr, "run_benches: malformed JSON in %s: %s\n",
                 path.c_str(), parse_err.c_str());
    std::exit(1);
  }
  const std::string schema_err = ampccut::bench::validate_bench_json(*doc);
  if (!schema_err.empty()) {
    std::fprintf(stderr, "run_benches: schema violation in %s: %s\n",
                 path.c_str(), schema_err.c_str());
    std::exit(1);
  }
  return std::move(*doc);
}

std::size_t count_results(const Value& merged) {
  std::size_t n = 0;
  if (const Value* suites = merged.find("suites")) {
    for (const Value& s : suites->as_array()) {
      n += s.find("results")->as_array().size();
    }
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path bench_dir = arg_value(argc, argv, "--bench-dir", "build/bench");
  const fs::path out_dir = arg_value(argc, argv, "--out-dir", ".");
  const char* only = arg_value(argc, argv, "--only", nullptr);
  const char* threads = arg_value(argc, argv, "--threads", nullptr);
  const long timeout_secs =
      std::strtol(arg_value(argc, argv, "--timeout", "900"), nullptr, 10);
  const bool smoke = has_flag(argc, argv, "--smoke");
  const bool full = has_flag(argc, argv, "--full");
  const fs::path tmp_dir = out_dir / ".bench_tmp";

  std::error_code ec;
  fs::create_directories(tmp_dir, ec);
  if (ec) {
    std::fprintf(stderr, "run_benches: cannot create %s: %s\n",
                 tmp_dir.c_str(), ec.message().c_str());
    return 1;
  }

  std::vector<Value> suite_docs;
  for (const char* name : kBenches) {
    if (only && std::strstr(name, only) == nullptr) continue;
    const fs::path bin = bench_dir / name;
    if (!fs::exists(bin)) {
      std::fprintf(stderr, "run_benches: missing bench binary %s\n",
                   bin.c_str());
      return 1;
    }
    const fs::path json_path = tmp_dir / (std::string(name) + ".json");
    std::string cmd = sh_quote(bin) + " --json " + sh_quote(json_path);
    if (smoke) cmd += " --smoke";
    if (full) cmd += " --full";
    if (threads != nullptr) {
      cmd += " --threads ";
      cmd += threads;
    }
#ifdef __unix__
    if (timeout_secs > 0) {
      cmd = "timeout " + std::to_string(timeout_secs) + " " + cmd;
    }
#endif
    std::string failure;
    if (!run_bench_cmd(cmd, name, &failure)) {
      // One retry: a wedged or flaky bench gets a second chance, loudly.
      // The bench rewrites its JSON from scratch, so a half-written file
      // from the killed first attempt cannot leak into the merge.
      std::fprintf(stderr,
                   "run_benches: WARNING: %s -- retrying once (a second "
                   "failure is fatal)\n",
                   failure.c_str());
      if (!run_bench_cmd(cmd, name, &failure)) {
        std::fprintf(stderr, "run_benches: %s (retry also failed)\n",
                     failure.c_str());
        return 1;
      }
    }
    suite_docs.push_back(load_validated(json_path, name));
  }

  if (suite_docs.empty()) {
    std::fprintf(stderr, "run_benches: no suites selected\n");
    return 1;
  }

  if (only) {
    // A filtered run covers only part of the trajectory; rewriting the
    // BENCH_*.json files with it would silently discard every other
    // suite's data. Validation already happened above — stop here.
    std::error_code cleanup;
    fs::remove_all(tmp_dir, cleanup);
    std::printf("\n--only run: suites validated, trajectory files left "
                "untouched\n");
    return 0;
  }

  std::printf("\n");
  for (const char* group : {"ampc", "exact"}) {
    Value merged = ampccut::bench::merge_suites(suite_docs, group);
    merged["mode"] = smoke ? "smoke" : (full ? "full" : "default");
    const std::string err = ampccut::bench::validate_bench_json(merged);
    if (!err.empty()) {
      std::fprintf(stderr, "run_benches: merged %s document invalid: %s\n",
                   group, err.c_str());
      return 1;
    }
    const fs::path out = out_dir / ("BENCH_" + std::string(group) + ".json");
    std::ofstream f(out, std::ios::binary | std::ios::trunc);
    f << merged.dump() << "\n";
    if (!f.good()) {
      std::fprintf(stderr, "run_benches: failed to write %s\n", out.c_str());
      return 1;
    }
    f.close();
    // Trust nothing: the trajectory file on disk must itself re-parse.
    (void)load_validated(out, "merged output");
    std::printf("wrote %s (%zu results across %zu suites)\n", out.c_str(),
                count_results(merged), merged.find("suites")->as_array().size());
  }
  fs::remove_all(tmp_dir, ec);
  return 0;
}
