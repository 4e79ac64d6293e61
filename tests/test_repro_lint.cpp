// Fixture-backed suite for tools/repro_lint (DESIGN.md "Static analysis &
// invariant enforcement").
//
// Every check is exercised three ways from tests/lint_fixtures/: a file of
// seeded violations (exact finding counts and file:line anchors), a clean
// twin (zero findings), and an allowlisted twin (zero findings, the allow
// entries recorded with their justification). The directive machinery's own
// findings (bad-allow / unused-allow) have dedicated fixtures, the JSON
// report round-trips through the strict json parser, and the final test
// re-lints the real tree — the same gate CI runs — and demands zero
// non-allowlisted findings.
//
// Fixtures are read from the source tree via AMPC_CUT_SOURCE_DIR and fed to
// scan_file under synthetic paths, so path-scoped behavior (iteration-order
// fires only under src/, psort.* and rng.h are exempt) is testable without
// copying files around.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "repro_lint/lint.h"
#include "support/json.h"

namespace ampccut::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path =
      std::string(AMPC_CUT_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Lints one fixture under a synthetic path (the path drives src/-scoping and
// per-file exemptions).
Report lint_as(const std::string& synthetic_path, const std::string& fixture) {
  Report r;
  scan_file(synthetic_path, read_fixture(fixture), r);
  return r;
}

std::vector<int> lines_of(const Report& r, std::string_view check) {
  std::vector<int> lines;
  for (const Finding& f : r.findings) {
    if (f.check == check) lines.push_back(f.line);
  }
  return lines;
}

std::vector<int> allowed_lines(const Report& r) {
  std::vector<int> lines;
  lines.reserve(r.allowed.size());
  for (const AllowEntry& a : r.allowed) lines.push_back(a.line);
  return lines;
}

using IntVec = std::vector<int>;

// ---------------------------------------------------------------------------
// Source stripping

TEST(ReproLintStrip, PreservesOffsetsAndBlanksNonCode) {
  const std::string src =
      "int a = 1; // trailing words\n"
      "const char* s = \"std::sort(x)\";\n"
      "/* block\n   spans lines */ int b = 2;\n"
      "char c = 'q';\n";
  const std::string out = strip_comments_and_strings(src);
  ASSERT_EQ(out.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(src[i] == '\n', out[i] == '\n') << "newline moved at " << i;
  }
  EXPECT_NE(out.find("int a = 1;"), std::string::npos);
  EXPECT_NE(out.find("int b = 2;"), std::string::npos);
  EXPECT_EQ(out.find("trailing"), std::string::npos);
  EXPECT_EQ(out.find("std::sort"), std::string::npos);
  EXPECT_EQ(out.find("spans"), std::string::npos);
  EXPECT_EQ(out.find('q'), std::string::npos);
}

TEST(ReproLintStrip, RawStringsAreBlanked) {
  const std::string src = "auto r = R\"(qsort(p, n, 1, f))\"; int c = 3;\n";
  const std::string out = strip_comments_and_strings(src);
  ASSERT_EQ(out.size(), src.size());
  EXPECT_EQ(out.find("qsort"), std::string::npos);
  EXPECT_NE(out.find("int c = 3;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// raw-sort

TEST(ReproLintRawSort, SeededViolationsAreAllFound) {
  const Report r = lint_as("tests/fixture.cpp", "raw_sort_violation.cpp");
  EXPECT_EQ(lines_of(r, kRawSort), (IntVec{8, 9, 10, 11, 12}));
  EXPECT_EQ(r.findings.size(), 5u);  // nothing else fires
  EXPECT_TRUE(r.allowed.empty());
  for (const Finding& f : r.findings) {
    EXPECT_EQ(f.file, "tests/fixture.cpp");
    EXPECT_FALSE(f.snippet.empty());
  }
}

TEST(ReproLintRawSort, CleanTwinIsSilent) {
  const Report r = lint_as("tests/fixture.cpp", "raw_sort_clean.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
}

TEST(ReproLintRawSort, AllowlistedTwinSuppressesBothForms) {
  const Report r = lint_as("tests/fixture.cpp", "raw_sort_allowed.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
  ASSERT_EQ(r.allowed.size(), 2u);
  EXPECT_EQ(allowed_lines(r), (IntVec{8, 9}));  // construct lines, not comment
  for (const AllowEntry& a : r.allowed) {
    EXPECT_EQ(a.check, kRawSort);
    EXPECT_FALSE(a.justification.empty());
  }
}

TEST(ReproLintRawSort, PsortLayerIsExempt) {
  const Report r =
      lint_as("src/support/psort.h", "raw_sort_violation.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
}

// ---------------------------------------------------------------------------
// iteration-order

TEST(ReproLintIterationOrder, FiresOnlyUnderSrc) {
  const Report in_src =
      lint_as("src/fixture.cpp", "iteration_order_violation.cpp");
  EXPECT_EQ(lines_of(in_src, kIterationOrder), (IntVec{9, 12}));
  EXPECT_EQ(in_src.findings.size(), 2u);

  const Report in_tests =
      lint_as("tests/fixture.cpp", "iteration_order_violation.cpp");
  EXPECT_TRUE(in_tests.findings.empty()) << in_tests.to_json().dump();
}

TEST(ReproLintIterationOrder, CleanTwinIsSilent) {
  const Report r = lint_as("src/fixture.cpp", "iteration_order_clean.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
}

TEST(ReproLintIterationOrder, AllowlistedTwinIsSuppressed) {
  const Report r = lint_as("src/fixture.cpp", "iteration_order_allowed.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
  ASSERT_EQ(r.allowed.size(), 1u);
  EXPECT_EQ(r.allowed[0].check, kIterationOrder);
  EXPECT_EQ(r.allowed[0].line, 8);
}

// ---------------------------------------------------------------------------
// rng-discipline

TEST(ReproLintRng, SeededViolationsAreAllFound) {
  const Report r =
      lint_as("src/fixture.cpp", "rng_discipline_violation.cpp");
  EXPECT_EQ(lines_of(r, kRngDiscipline), (IntVec{8, 9, 10}));
  EXPECT_EQ(r.findings.size(), 3u);
  for (const Finding& f : r.findings) {
    if (f.line == 9) {
      EXPECT_NE(f.message.find("time-derived"), std::string::npos);
    }
  }
}

TEST(ReproLintRng, CleanTwinIsSilent) {
  const Report r = lint_as("src/fixture.cpp", "rng_discipline_clean.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
}

TEST(ReproLintRng, AllowlistedTwinIsSuppressed) {
  const Report r = lint_as("src/fixture.cpp", "rng_discipline_allowed.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
  ASSERT_EQ(r.allowed.size(), 1u);
  EXPECT_EQ(r.allowed[0].check, kRngDiscipline);
  EXPECT_EQ(r.allowed[0].line, 6);
}

TEST(ReproLintRng, RngHeaderIsExempt) {
  const Report r =
      lint_as("src/support/rng.h", "rng_discipline_violation.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
}

// ---------------------------------------------------------------------------
// comparator-tiebreak

TEST(ReproLintComparator, SeededViolationsAreAllFound) {
  const Report r =
      lint_as("tests/fixture.cpp", "comparator_tiebreak_violation.cpp");
  EXPECT_EQ(lines_of(r, kComparatorTiebreak), (IntVec{11, 14}));
  EXPECT_EQ(r.findings.size(), 2u);
}

TEST(ReproLintComparator, CleanTwinIsSilent) {
  const Report r =
      lint_as("tests/fixture.cpp", "comparator_tiebreak_clean.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
}

TEST(ReproLintComparator, AllowlistedTwinIsSuppressed) {
  const Report r =
      lint_as("tests/fixture.cpp", "comparator_tiebreak_allowed.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
  ASSERT_EQ(r.allowed.size(), 1u);
  EXPECT_EQ(r.allowed[0].check, kComparatorTiebreak);
  EXPECT_EQ(r.allowed[0].line, 8);
}

// ---------------------------------------------------------------------------
// dcheck-side-effect

TEST(ReproLintDcheck, SeededViolationsAreAllFound) {
  const Report r =
      lint_as("src/fixture.cpp", "dcheck_side_effect_violation.cpp");
  EXPECT_EQ(lines_of(r, kDcheckSideEffect), (IntVec{8, 9, 10}));
  EXPECT_EQ(r.findings.size(), 3u);
}

TEST(ReproLintDcheck, CleanTwinIsSilent) {
  const Report r =
      lint_as("src/fixture.cpp", "dcheck_side_effect_clean.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
}

TEST(ReproLintDcheck, AllowlistedTwinIsSuppressed) {
  const Report r =
      lint_as("src/fixture.cpp", "dcheck_side_effect_allowed.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
  ASSERT_EQ(r.allowed.size(), 1u);
  EXPECT_EQ(r.allowed[0].check, kDcheckSideEffect);
  EXPECT_EQ(r.allowed[0].line, 6);
}

// ---------------------------------------------------------------------------
// weight-add

TEST(ReproLintWeightAdd, FiresOnlyUnderSrc) {
  const Report in_src = lint_as("src/fixture.cpp", "weight_add_violation.cpp");
  EXPECT_EQ(lines_of(in_src, kWeightAdd), (IntVec{8, 9, 11}));
  EXPECT_EQ(in_src.findings.size(), 3u);

  const Report in_tests =
      lint_as("tests/fixture.cpp", "weight_add_violation.cpp");
  EXPECT_TRUE(in_tests.findings.empty()) << in_tests.to_json().dump();
}

TEST(ReproLintWeightAdd, CleanTwinIsSilent) {
  const Report r = lint_as("src/fixture.cpp", "weight_add_clean.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
}

TEST(ReproLintWeightAdd, AllowlistedTwinIsSuppressed) {
  const Report r = lint_as("src/fixture.cpp", "weight_add_allowed.cpp");
  EXPECT_TRUE(r.findings.empty()) << r.to_json().dump();
  ASSERT_EQ(r.allowed.size(), 1u);
  EXPECT_EQ(r.allowed[0].check, kWeightAdd);
  EXPECT_EQ(r.allowed[0].line, 8);
}

// ---------------------------------------------------------------------------
// Directive machinery

TEST(ReproLintDirectives, MalformedDirectivesAreFindings) {
  const Report r = lint_as("tests/fixture.cpp", "bad_allow.cpp");
  EXPECT_EQ(lines_of(r, kBadAllow), (IntVec{3, 4, 5, 6}));
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_TRUE(r.allowed.empty());
}

TEST(ReproLintDirectives, UnusedDirectivesAreFindings) {
  const Report r = lint_as("tests/fixture.cpp", "unused_allow.cpp");
  EXPECT_EQ(lines_of(r, kUnusedAllow), (IntVec{3, 5}));
  EXPECT_EQ(r.findings.size(), 2u);
  EXPECT_TRUE(r.allowed.empty());
}

// ---------------------------------------------------------------------------
// JSON report

TEST(ReproLintJson, ReportRoundTripsThroughStrictParser) {
  Report r;
  scan_file("tests/a.cpp", read_fixture("raw_sort_violation.cpp"), r);
  scan_file("tests/b.cpp", read_fixture("raw_sort_allowed.cpp"), r);
  const std::string text = r.to_json().dump();

  std::string err;
  const auto doc = json::Value::parse(text, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("schema"), nullptr);
  EXPECT_EQ(doc->find("schema")->as_string(), "repro-lint-v1");
  EXPECT_EQ(doc->find("files_scanned")->as_int(), 2);
  EXPECT_EQ(doc->find("finding_count")->as_int(), 5);
  EXPECT_EQ(doc->find("allowed_count")->as_int(), 2);

  // Every check id is present in counts, zeros included.
  const json::Value* counts = doc->find("counts");
  ASSERT_NE(counts, nullptr);
  for (const std::string_view check : kAllChecks) {
    const json::Value* n = counts->find(check);
    ASSERT_NE(n, nullptr) << check;
    EXPECT_TRUE(n->is_number()) << check;
  }
  EXPECT_EQ(counts->find(kRawSort)->as_int(), 5);
  EXPECT_EQ(counts->find(kRngDiscipline)->as_int(), 0);

  const json::Value* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_TRUE(findings->is_array());
  ASSERT_EQ(findings->as_array().size(), 5u);
  for (const json::Value& f : findings->as_array()) {
    EXPECT_EQ(f.find("check")->as_string(), kRawSort);
    EXPECT_EQ(f.find("file")->as_string(), "tests/a.cpp");
    EXPECT_GT(f.find("line")->as_int(), 0);
    EXPECT_FALSE(f.find("message")->as_string().empty());
    EXPECT_FALSE(f.find("snippet")->as_string().empty());
  }
  const json::Value* allowed = doc->find("allowed");
  ASSERT_NE(allowed, nullptr);
  ASSERT_EQ(allowed->as_array().size(), 2u);
  for (const json::Value& a : allowed->as_array()) {
    EXPECT_EQ(a.find("file")->as_string(), "tests/b.cpp");
    EXPECT_FALSE(a.find("justification")->as_string().empty());
  }
}

// ---------------------------------------------------------------------------
// Tree walks

TEST(ReproLintTree, MissingRootIsAnError) {
  Report r;
  std::string err;
  EXPECT_FALSE(scan_tree("/nonexistent/repro-lint-root", default_subdirs(),
                         r, &err));
  EXPECT_FALSE(err.empty());
}

// src/kernel joined the tree after the lint gate existed; pin that the walk
// actually descends into it and that the layer is clean without a single
// allow directive (its sorts are free-function key projections on psort,
// which the comparator check accepts as-is).
TEST(ReproLintTree, KernelLayerIsInScopeAndClean) {
  Report r;
  std::string err;
  ASSERT_TRUE(scan_tree(AMPC_CUT_SOURCE_DIR, {"src/kernel"}, r, &err)) << err;
  EXPECT_GE(r.files_scanned, 4);  // kernel.{h,cpp}, front.{h,cpp}
  std::string diag;
  for (const Finding& f : r.findings) {
    diag += f.file + ':' + std::to_string(f.line) + ' ' + f.message + '\n';
  }
  EXPECT_TRUE(r.findings.empty()) << diag;
  EXPECT_TRUE(r.allowed.empty()) << "kernel layer should need no allowlist";
}

// The serving tier answers external queries off shared snapshots — its
// snapshot indexing and batch fan-out must be free of hidden
// nondeterminism (the batch-vs-sequential bit-identity contract in
// tests/test_serve.cpp depends on it). Pin src/serve in-walk and clean with
// zero allow directives.
TEST(ReproLintTree, ServeLayerIsInScopeAndClean) {
  Report r;
  std::string err;
  ASSERT_TRUE(scan_tree(AMPC_CUT_SOURCE_DIR, {"src/serve"}, r, &err)) << err;
  // cut_server, scenarios, snapshot — each .h + .cpp.
  EXPECT_GE(r.files_scanned, 6);
  std::string diag;
  for (const Finding& f : r.findings) {
    diag += f.file + ':' + std::to_string(f.line) + ' ' + f.message + '\n';
  }
  EXPECT_TRUE(r.findings.empty()) << diag;
  EXPECT_TRUE(r.allowed.empty()) << "serve layer should need no allowlist";
}

// The gate CI enforces: the real tree has zero non-allowlisted findings, and
// the fixture directory is excluded from the walk.
TEST(ReproLintTree, RealTreeHasZeroFindings) {
  Report r;
  std::string err;
  ASSERT_TRUE(scan_tree(AMPC_CUT_SOURCE_DIR, default_subdirs(), r, &err))
      << err;
  EXPECT_GT(r.files_scanned, 50);
  std::string diag;
  for (const Finding& f : r.findings) {
    diag += f.file;
    diag += ':';
    diag += std::to_string(f.line);
    diag += " [";
    diag += f.check;
    diag += "] ";
    diag += f.message;
    diag += '\n';
  }
  EXPECT_TRUE(r.findings.empty()) << diag;
  EXPECT_FALSE(r.allowed.empty()) << "the tree carries a curated allowlist";
  for (const AllowEntry& a : r.allowed) {
    EXPECT_EQ(a.file.find("lint_fixtures"), std::string::npos) << a.file;
    EXPECT_FALSE(a.justification.empty()) << a.file << ':' << a.line;
  }
}

}  // namespace
}  // namespace ampccut::lint
