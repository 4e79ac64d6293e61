#include "repro_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace ampccut::lint {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

std::string remove_spaces(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) out.push_back(c);
  }
  return out;
}

// Word-boundary occurrence of `word` in `text` at or after `from`;
// std::string::npos when absent.
std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from = 0) {
  for (std::size_t p = text.find(word, from); p != std::string_view::npos;
       p = text.find(word, p + 1)) {
    const bool left_ok = p == 0 || !is_ident_char(text[p - 1]);
    const std::size_t after = p + word.size();
    const bool right_ok = after >= text.size() || !is_ident_char(text[after]);
    if (left_ok && right_ok) return p;
  }
  return std::string_view::npos;
}

bool contains_word(std::string_view text, std::string_view word) {
  return find_word(text, word) != std::string_view::npos;
}

// True when `path` (with '/' separators) ends in `suffix` on a path-segment
// boundary, e.g. suffix "src/support/psort.h" matches both the bare relative
// path and any absolute prefix of it.
bool path_ends_with(std::string_view path, std::string_view suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.substr(path.size() - suffix.size()) != suffix) return false;
  return path.size() == suffix.size() ||
         path[path.size() - suffix.size() - 1] == '/';
}

// True when `path` contains "src" as a path segment (root-relative paths in
// tree scans start with "src/"; tests may pass synthetic "src/..." paths).
bool in_src(std::string_view path) {
  for (std::size_t p = 0; p + 3 <= path.size(); ++p) {
    if (path.compare(p, 3, "src") != 0) continue;
    const bool left_ok = p == 0 || path[p - 1] == '/';
    const bool right_ok = p + 3 == path.size() || path[p + 3] == '/';
    if (left_ok && right_ok) return true;
  }
  return false;
}

// Per-file scan state shared by the checks.
struct FileScan {
  std::string path;
  std::vector<std::string> raw_lines;   // verbatim source lines
  std::vector<std::string> code_lines;  // comments/strings blanked
  std::vector<std::string> comment_lines;  // comment text only
  std::string blob;                     // code_lines joined with '\n'
  std::vector<std::size_t> line_start;  // blob offset of each line

  [[nodiscard]] int line_of(std::size_t blob_pos) const {
    const auto it = std::upper_bound(line_start.begin(), line_start.end(),
                                     blob_pos);
    return static_cast<int>(it - line_start.begin());  // 1-based
  }
};

// A parsed allow directive, pinned to the code line it governs.
struct Directive {
  std::string check;
  int directive_line = 0;  // where the comment sits (for unused reporting)
  int target_line = 0;     // the code line it suppresses findings on
  std::string justification;
  bool used = false;
};

struct Scanner {
  FileScan f;
  Report* report;
  std::vector<Directive> directives;

  void emit(std::string_view check, int line, std::string message) {
    for (auto& d : directives) {
      if (d.target_line == line && d.check == check) {
        d.used = true;
        report->allowed.push_back(
            {std::string(check), f.path, line, d.justification});
        return;
      }
    }
    Finding fd;
    fd.check = std::string(check);
    fd.file = f.path;
    fd.line = line;
    fd.message = std::move(message);
    if (line >= 1 && line <= static_cast<int>(f.raw_lines.size())) {
      fd.snippet = trim(f.raw_lines[line - 1]);
    }
    report->findings.push_back(std::move(fd));
  }
};

// ---------------------------------------------------------------------------
// Directive parsing

void collect_directives(Scanner& s) {
  constexpr std::string_view kTag = "repro-lint:";
  const auto& comments = s.f.comment_lines;
  for (std::size_t i = 0; i < comments.size(); ++i) {
    const std::string& c = comments[i];
    std::size_t pos = c.find(kTag);
    if (pos == std::string::npos) continue;
    pos += kTag.size();
    const std::string rest = trim(std::string_view(c).substr(pos));
    const int here = static_cast<int>(i) + 1;
    if (rest.compare(0, 6, "allow(") != 0) {
      s.report->findings.push_back(
          {std::string(kBadAllow), s.f.path, here,
           "malformed repro-lint directive: expected 'allow(<check>)'",
           trim(s.f.raw_lines[i])});
      continue;
    }
    const std::size_t close = rest.find(')', 6);
    if (close == std::string::npos) {
      s.report->findings.push_back(
          {std::string(kBadAllow), s.f.path, here,
           "malformed repro-lint directive: missing ')'",
           trim(s.f.raw_lines[i])});
      continue;
    }
    const std::string check = trim(std::string_view(rest).substr(6, close - 6));
    const std::string justification =
        trim(std::string_view(rest).substr(close + 1));
    const bool known =
        std::find(std::begin(kAllChecks), std::end(kAllChecks), check) !=
        std::end(kAllChecks);
    if (!known) {
      s.report->findings.push_back(
          {std::string(kBadAllow), s.f.path, here,
           "unknown check '" + check + "' in repro-lint allow directive",
           trim(s.f.raw_lines[i])});
      continue;
    }
    if (justification.empty()) {
      s.report->findings.push_back(
          {std::string(kBadAllow), s.f.path, here,
           "repro-lint allow(" + check +
               ") needs a justification after the ')'",
           trim(s.f.raw_lines[i])});
      continue;
    }
    // Trailing directive governs its own line; a directive-only line governs
    // the next line that holds code.
    int target = here;
    if (trim(s.f.code_lines[i]).empty()) {
      target = 0;
      for (std::size_t j = i + 1; j < s.f.code_lines.size(); ++j) {
        if (!trim(s.f.code_lines[j]).empty()) {
          target = static_cast<int>(j) + 1;
          break;
        }
      }
    }
    s.directives.push_back({check, here, target, justification, false});
  }
}

// ---------------------------------------------------------------------------
// Check 1: raw-sort

void check_raw_sort(Scanner& s) {
  if (path_ends_with(s.f.path, "src/support/psort.h") ||
      path_ends_with(s.f.path, "src/support/psort.cpp")) {
    return;  // the psort layer is where the sequential fallbacks live
  }
  constexpr std::string_view kCalls[] = {"sort", "stable_sort",
                                         "partial_sort", "qsort"};
  for (std::size_t i = 0; i < s.f.code_lines.size(); ++i) {
    const std::string& line = s.f.code_lines[i];
    for (const std::string_view name : kCalls) {
      for (std::size_t p = find_word(line, name); p != std::string_view::npos;
           p = find_word(line, name, p + 1)) {
        // Qualified std:: / std::ranges:: (or C qsort) immediately invoked.
        std::size_t q = p + name.size();
        while (q < line.size() &&
               std::isspace(static_cast<unsigned char>(line[q])) != 0) {
          ++q;
        }
        if (q >= line.size() || line[q] != '(') continue;
        const bool qualified =
            p >= 2 && line.compare(p - 2, 2, "::") == 0;
        if (name != "qsort" && !qualified) continue;
        s.emit(kRawSort, static_cast<int>(i) + 1,
               "raw " + std::string(name) +
                   " outside src/support/psort.* — route host-side sorts "
                   "through psort::stable_sort_keys (stability is the id "
                   "tie-break the determinism contract requires)");
        break;  // one finding per (line, call name)
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 2: iteration-order (src/ only)

// Collects identifiers declared with std::unordered_map/unordered_set
// anywhere in the type (members, locals, params, vectors of unordered).
std::vector<std::string> unordered_names(const std::string& blob) {
  std::vector<std::string> names;
  constexpr std::string_view kTypes[] = {"unordered_map", "unordered_set"};
  for (const std::string_view t : kTypes) {
    for (std::size_t p = find_word(blob, t); p != std::string::npos;
         p = find_word(blob, t, p + 1)) {
      std::size_t q = p + t.size();
      while (q < blob.size() &&
             std::isspace(static_cast<unsigned char>(blob[q])) != 0) {
        ++q;
      }
      if (q >= blob.size() || blob[q] != '<') continue;
      // Skip the balanced template argument list.
      int depth = 0;
      while (q < blob.size()) {
        if (blob[q] == '<') ++depth;
        if (blob[q] == '>') {
          --depth;
          if (depth == 0) break;
        }
        ++q;
      }
      if (q >= blob.size()) continue;
      ++q;  // past the closing '>'
      // Skip outer-template closers and declarator decoration.
      while (q < blob.size() &&
             (std::isspace(static_cast<unsigned char>(blob[q])) != 0 ||
              blob[q] == '>' || blob[q] == '&' || blob[q] == '*')) {
        ++q;
      }
      std::size_t e = q;
      while (e < blob.size() && is_ident_char(blob[e])) ++e;
      if (e == q) continue;
      const std::string name = blob.substr(q, e - q);
      if (name == "const") continue;
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void check_iteration_order(Scanner& s) {
  if (!in_src(s.f.path)) return;
  const std::vector<std::string> names = unordered_names(s.f.blob);
  if (names.empty()) return;
  for (std::size_t i = 0; i < s.f.code_lines.size(); ++i) {
    const std::string& line = s.f.code_lines[i];
    for (std::size_t p = find_word(line, "for"); p != std::string_view::npos;
         p = find_word(line, "for", p + 1)) {
      const std::size_t open = line.find('(', p);
      if (open == std::string::npos) break;
      const std::size_t colon = line.find(':', open);
      if (colon == std::string::npos) break;
      const std::size_t close = line.find(')', colon);
      if (close == std::string::npos) break;
      std::string range = trim(line.substr(colon + 1, close - colon - 1));
      if (range.empty() || range.find('(') != std::string::npos) continue;
      // Last member-access component, sans any subscript.
      std::size_t start = 0;
      for (std::size_t d = range.rfind('.'); d != std::string::npos;) {
        start = d + 1;
        break;
      }
      if (const std::size_t a = range.rfind("->"); a != std::string::npos) {
        start = std::max(start, a + 2);
      }
      std::string base = range.substr(start);
      if (const std::size_t b = base.find('['); b != std::string::npos) {
        base = base.substr(0, b);
      }
      base = trim(base);
      if (std::find(names.begin(), names.end(), base) != names.end()) {
        s.emit(kIterationOrder, static_cast<int>(i) + 1,
               "range-for over unordered container '" + base +
                   "' — hash iteration order is implementation-defined; "
                   "allowlist only commutative accumulation");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 3: rng-discipline

void check_rng_discipline(Scanner& s) {
  if (path_ends_with(s.f.path, "src/support/rng.h")) return;
  constexpr std::string_view kBanned[] = {
      "rand",       "srand",        "random_device",
      "mt19937",    "mt19937_64",   "minstd_rand",
      "minstd_rand0", "default_random_engine", "knuth_b",
      "ranlux24",   "ranlux48",
  };
  for (std::size_t i = 0; i < s.f.code_lines.size(); ++i) {
    const std::string& line = s.f.code_lines[i];
    for (const std::string_view name : kBanned) {
      if (!contains_word(line, name)) continue;
      // rand/srand must look like calls; the std engine type names are
      // banned as bare tokens.
      if (name == "rand" || name == "srand") {
        const std::size_t p = find_word(line, name);
        std::size_t q = p + name.size();
        while (q < line.size() &&
               std::isspace(static_cast<unsigned char>(line[q])) != 0) {
          ++q;
        }
        if (q >= line.size() || line[q] != '(') continue;
      }
      std::string msg = "'";
      msg += name;
      msg +=
          "' outside src/support/rng.h — all randomness must flow from the "
          "explicit-seed ampccut::Rng";
      s.emit(kRngDiscipline, static_cast<int>(i) + 1, std::move(msg));
      break;
    }
    // Time-derived seeding: a now()/time() call on a line that also touches
    // seed/rng state. Timing code (bench wall clocks) has no seed on the
    // line and stays clean.
    bool timey = line.find("::now") != std::string::npos;
    if (!timey) {
      // C time(...) — call-shaped and not a member (.time / ->time / a
      // struct field read like order.time[e]).
      for (std::size_t p = find_word(line, "time"); p != std::string_view::npos;
           p = find_word(line, "time", p + 1)) {
        const char prev = p > 0 ? line[p - 1] : '\0';
        if (prev == '.' || prev == '>') continue;
        std::size_t q = p + 4;
        while (q < line.size() &&
               std::isspace(static_cast<unsigned char>(line[q])) != 0) {
          ++q;
        }
        if (q < line.size() && line[q] == '(') {
          timey = true;
          break;
        }
      }
    }
    if (!timey) continue;
    std::string lower = line;
    std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
      return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    });
    if (lower.find("seed") != std::string::npos ||
        contains_word(lower, "rng")) {
      s.emit(kRngDiscipline, static_cast<int>(i) + 1,
             "time-derived seed — seeds must be explicit so every run is "
             "reproducible");
    }
  }
}

// ---------------------------------------------------------------------------
// Check 4: comparator-tiebreak

// Last identifier in a parameter declaration ("const WEdge& x" -> "x").
std::string param_name(std::string_view decl) {
  std::size_t e = decl.size();
  while (e > 0 && !is_ident_char(decl[e - 1])) --e;
  std::size_t b = e;
  while (b > 0 && is_ident_char(decl[b - 1])) --b;
  return std::string(decl.substr(b, e - b));
}

// Replaces word-boundary occurrences of `a`<->`b` in space-free `expr`.
std::string swap_params(const std::string& expr, const std::string& a,
                        const std::string& b) {
  std::string out;
  std::size_t i = 0;
  while (i < expr.size()) {
    const bool boundary = i == 0 || !is_ident_char(expr[i - 1]);
    if (boundary && expr.compare(i, a.size(), a) == 0 &&
        (i + a.size() >= expr.size() || !is_ident_char(expr[i + a.size()]))) {
      out += b;
      i += a.size();
    } else if (boundary && expr.compare(i, b.size(), b) == 0 &&
               (i + b.size() >= expr.size() ||
                !is_ident_char(expr[i + b.size()]))) {
      out += a;
      i += b.size();
    } else {
      out.push_back(expr[i]);
      ++i;
    }
  }
  return out;
}

void check_comparator_tiebreak(Scanner& s) {
  const std::string& blob = s.f.blob;
  for (std::size_t p = blob.find('['); p != std::string::npos;
       p = blob.find('[', p + 1)) {
    // Lambda introducer: '[' whose matching ']' is directly followed by '('.
    const std::size_t close_b = blob.find(']', p);
    if (close_b == std::string::npos) break;
    std::size_t q = close_b + 1;
    while (q < blob.size() &&
           std::isspace(static_cast<unsigned char>(blob[q])) != 0) {
      ++q;
    }
    if (q >= blob.size() || blob[q] != '(') continue;
    // Parameter list up to the balanced ')'.
    int depth = 0;
    std::size_t r = q;
    while (r < blob.size()) {
      if (blob[r] == '(') ++depth;
      if (blob[r] == ')') {
        --depth;
        if (depth == 0) break;
      }
      ++r;
    }
    if (r >= blob.size()) break;
    const std::string params = blob.substr(q + 1, r - q - 1);
    // Exactly two top-level parameters.
    std::vector<std::string> parts;
    {
      int d = 0;
      std::size_t start = 0;
      for (std::size_t i = 0; i <= params.size(); ++i) {
        if (i == params.size() || (params[i] == ',' && d == 0)) {
          parts.push_back(params.substr(start, i - start));
          start = i + 1;
        } else if (params[i] == '<' || params[i] == '(') {
          ++d;
        } else if (params[i] == '>' || params[i] == ')') {
          --d;
        }
      }
    }
    if (parts.size() != 2) continue;
    const std::string pa = param_name(parts[0]);
    const std::string pb = param_name(parts[1]);
    if (pa.empty() || pb.empty() || pa == pb) continue;
    // Body must be exactly `{ return EXPR; }`.
    std::size_t t = r + 1;
    while (t < blob.size() &&
           std::isspace(static_cast<unsigned char>(blob[t])) != 0) {
      ++t;
    }
    if (t >= blob.size() || blob[t] != '{') continue;
    std::size_t u = t + 1;
    while (u < blob.size() &&
           std::isspace(static_cast<unsigned char>(blob[u])) != 0) {
      ++u;
    }
    if (blob.compare(u, 6, "return") != 0) continue;
    const std::size_t semi = blob.find(';', u);
    if (semi == std::string::npos) continue;
    std::size_t w = semi + 1;
    while (w < blob.size() &&
           std::isspace(static_cast<unsigned char>(blob[w])) != 0) {
      ++w;
    }
    if (w >= blob.size() || blob[w] != '}') continue;
    const std::string expr = remove_spaces(blob.substr(u + 6, semi - u - 6));
    // A comma means a composite key (std::tie / make_pair) — that IS the
    // tie-break this check wants, so only single-expression bodies qualify.
    if (expr.find(',') != std::string::npos) continue;
    // Exactly one bare < or > (not <=, >=, <<, >>, ->, != , ==).
    std::vector<std::size_t> cmp;
    for (std::size_t i = 0; i < expr.size(); ++i) {
      if (expr[i] != '<' && expr[i] != '>') continue;
      const char prev = i > 0 ? expr[i - 1] : '\0';
      const char next = i + 1 < expr.size() ? expr[i + 1] : '\0';
      if (next == '=' || prev == expr[i] || next == expr[i]) {
        ++i;  // skip the operator pair
        continue;
      }
      if (expr[i] == '>' && prev == '-') continue;  // ->
      cmp.push_back(i);
    }
    if (cmp.size() != 1) continue;
    const std::string lhs = expr.substr(0, cmp[0]);
    const std::string rhs = expr.substr(cmp[0] + 1);
    if (lhs.empty() || rhs.empty()) continue;
    // Projection required: a plain `a < b` orders by the value itself and
    // cannot tie two distinct elements' identities.
    const bool projected = lhs.find('.') != std::string::npos ||
                           lhs.find("->") != std::string::npos ||
                           lhs.find('[') != std::string::npos;
    if (!projected) continue;
    if (swap_params(lhs, pa, pb) != rhs) continue;
    s.emit(kComparatorTiebreak, s.f.line_of(p),
           "comparator orders by a single projected key with no tie-break — "
           "ties fall to container order; pair the key with an id "
           "(std::tie) or justify that a stable sort supplies the "
           "tie-break");
  }
}

// ---------------------------------------------------------------------------
// Check 5: dcheck-side-effect

void check_dcheck_side_effect(Scanner& s) {
  const std::string& blob = s.f.blob;
  constexpr std::string_view kMutating[] = {
      ".push_back(", ".pop_back(",  ".insert(",   ".erase(",
      ".emplace",    ".clear(",     ".resize(",   ".reserve(",
      ".unite(",     ".fetch_add(", ".fetch_sub(", ".exchange(",
      ".store(",     "next_u64(",   "next_below(", "next_double(",
      "next_double_open(", "next_exponential(", "next_bernoulli(",
  };
  for (std::size_t p = find_word(blob, "REPRO_DCHECK");
       p != std::string::npos; p = find_word(blob, "REPRO_DCHECK", p + 1)) {
    std::size_t q = p + 12;
    while (q < blob.size() &&
           std::isspace(static_cast<unsigned char>(blob[q])) != 0) {
      ++q;
    }
    if (q >= blob.size() || blob[q] != '(') continue;
    int depth = 0;
    std::size_t r = q;
    while (r < blob.size()) {
      if (blob[r] == '(') ++depth;
      if (blob[r] == ')') {
        --depth;
        if (depth == 0) break;
      }
      ++r;
    }
    if (r >= blob.size()) break;
    const std::string arg = remove_spaces(blob.substr(q + 1, r - q - 1));
    bool dirty = arg.find("++") != std::string::npos ||
                 arg.find("--") != std::string::npos;
    if (!dirty) {
      for (std::size_t i = 0; i < arg.size() && !dirty; ++i) {
        if (arg[i] != '=') continue;
        const char prev = i > 0 ? arg[i - 1] : '\0';
        const char next = i + 1 < arg.size() ? arg[i + 1] : '\0';
        if (next == '=') {
          ++i;  // ==
          continue;
        }
        if (prev == '=' || prev == '!' || prev == '<' || prev == '>') continue;
        dirty = true;  // plain or compound assignment
      }
    }
    if (!dirty) {
      for (const std::string_view m : kMutating) {
        if (arg.find(m) != std::string::npos) {
          dirty = true;
          break;
        }
      }
    }
    if (dirty) {
      s.emit(kDcheckSideEffect, s.f.line_of(p),
             "REPRO_DCHECK argument has side effects — NDEBUG builds never "
             "evaluate it (the sizeof trick), silently changing behavior; "
             "hoist the mutation out of the macro");
    }
  }
}

// ---------------------------------------------------------------------------
// Check 6: weight-add (src/ only)

std::size_t skip_spaces(const std::string& text, std::size_t q) {
  while (q < text.size() &&
         std::isspace(static_cast<unsigned char>(text[q])) != 0) {
    ++q;
  }
  return q;
}

// The identifier (or the single punctuation character) that ends before
// `pos`, skipping spaces.
std::string word_before(const std::string& text, std::size_t pos) {
  std::size_t e = pos;
  while (e > 0 && std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) {
    --e;
  }
  if (e == 0) return {};
  if (!is_ident_char(text[e - 1])) return std::string(1, text[e - 1]);
  std::size_t b = e;
  while (b > 0 && is_ident_char(text[b - 1])) --b;
  return text.substr(b, e - b);
}

// Identifiers declared `Weight x` or `std::vector<Weight> x` (references,
// pointers, parameters and range-for variables included). `Weight f(` is a
// function, not a name.
std::vector<std::string> weight_names(const std::string& blob) {
  std::vector<std::string> names;
  for (std::size_t p = find_word(blob, "Weight"); p != std::string::npos;
       p = find_word(blob, "Weight", p + 1)) {
    std::size_t q = p + 6;
    const bool in_vector = word_before(blob, p) == "<" &&
                           word_before(blob, blob.rfind('<', p)) == "vector";
    if (in_vector) {
      q = skip_spaces(blob, q);
      if (q >= blob.size() || blob[q] != '>') continue;
      ++q;
    }
    while (q < blob.size() && (blob[q] == '&' || blob[q] == '*' ||
                               std::isspace(static_cast<unsigned char>(
                                   blob[q])) != 0)) {
      ++q;
    }
    std::size_t e = q;
    while (e < blob.size() && is_ident_char(blob[e])) ++e;
    if (e == q) continue;
    const std::string name = blob.substr(q, e - q);
    if (name == "const") continue;
    const std::size_t after = skip_spaces(blob, e);
    if (!in_vector && after < blob.size() && blob[after] == '(') continue;
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void check_weight_add(Scanner& s) {
  if (!in_src(s.f.path)) return;
  const std::vector<std::string> names = weight_names(s.f.blob);
  if (names.empty()) return;
  for (std::size_t i = 0; i < s.f.code_lines.size(); ++i) {
    const std::string& line = s.f.code_lines[i];
    for (std::size_t p = line.find("+="); p != std::string::npos;
         p = line.find("+=", p + 2)) {
      // The lvalue's base name: step back over one subscript, if any.
      std::size_t e = p;
      if (word_before(line, e) == "]") {
        int depth = 0;
        for (e = line.rfind(']', e); e > 0; --e) {
          if (line[e] == ']') ++depth;
          if (line[e] == '[' && --depth == 0) break;
        }
      }
      const std::string base = word_before(line, e);
      if (std::find(names.begin(), names.end(), base) != names.end()) {
        s.emit(kWeightAdd, static_cast<int>(i) + 1,
               "raw += on Weight '" + base +
                   "' — kInfiniteWeight operands wrap; use sat_add");
        break;  // one finding per line
      }
    }
  }
}

void report_unused_directives(Scanner& s) {
  for (const Directive& d : s.directives) {
    if (d.used) continue;
    s.report->findings.push_back(
        {std::string(kUnusedAllow), s.f.path, d.directive_line,
         "allow(" + d.check +
             ") suppressed nothing — remove it or fix its placement "
             "(trailing comment on the construct's first line, or a "
             "directive-only line directly above it)",
         trim(s.f.raw_lines[d.directive_line - 1])});
  }
}

}  // namespace

std::string strip_comments_and_strings(std::string_view src) {
  std::string out(src.size(), ' ');
  enum class St { Code, Line, Block, Str, Chr, Raw };
  St st = St::Code;
  std::string raw_delim;  // for raw strings: )delim"
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    if (c == '\n') {
      out[i] = '\n';
      if (st == St::Line) st = St::Code;
      continue;
    }
    switch (st) {
      case St::Code:
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
          st = St::Line;
        } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
          st = St::Block;
          ++i;
        } else if (c == 'R' && i + 1 < src.size() && src[i + 1] == '"' &&
                   (i == 0 || !is_ident_char(src[i - 1]))) {
          // R"delim( ... )delim"
          std::size_t j = i + 2;
          while (j < src.size() && src[j] != '(') ++j;
          // Built with += to dodge GCC 12's -Wrestrict false positive on
          // small-string operator+ chains (same workaround as test_psort).
          raw_delim = ")";
          raw_delim += src.substr(i + 2, j - i - 2);
          raw_delim += '"';
          out[i] = 'R';
          st = St::Raw;
          i = j;  // positions i+1..j blanked (already spaces)
        } else if (c == '"') {
          st = St::Str;
        } else if (c == '\'') {
          st = St::Chr;
        } else {
          out[i] = c;
        }
        break;
      case St::Line:
      case St::Block:
        if (st == St::Block && c == '*' && i + 1 < src.size() &&
            src[i + 1] == '/') {
          st = St::Code;
          ++i;
        }
        break;
      case St::Str:
      case St::Chr:
        if (c == '\\') {
          ++i;
          if (i < src.size() && src[i] == '\n') out[i] = '\n';
        } else if ((st == St::Str && c == '"') ||
                   (st == St::Chr && c == '\'')) {
          st = St::Code;
        }
        break;
      case St::Raw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          st = St::Code;
        }
        break;
    }
  }
  return out;
}

namespace {

// Comment text with code/strings blanked — the directive channel. Same state
// machine, opposite projection.
std::string extract_comments(std::string_view src) {
  std::string code = strip_comments_and_strings(src);
  std::string out(src.size(), ' ');
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '\n') {
      out[i] = '\n';
    } else if (code[i] == ' ' && src[i] != ' ') {
      out[i] = src[i];  // blanked by the stripper: comment or literal text
    }
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      lines.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

}  // namespace

void scan_file(const std::string& path, std::string_view contents,
               Report& report) {
  Scanner s;
  s.f.path = path;
  s.report = &report;
  s.f.raw_lines = split_lines(contents);
  const std::string code = strip_comments_and_strings(contents);
  s.f.code_lines = split_lines(code);
  s.f.comment_lines = split_lines(extract_comments(contents));
  s.f.blob = code;
  s.f.line_start.clear();
  s.f.line_start.push_back(0);
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '\n') s.f.line_start.push_back(i + 1);
  }
  ++report.files_scanned;

  collect_directives(s);
  check_raw_sort(s);
  check_iteration_order(s);
  check_rng_discipline(s);
  check_comparator_tiebreak(s);
  check_dcheck_side_effect(s);
  check_weight_add(s);
  report_unused_directives(s);
}

std::vector<std::string> default_subdirs() {
  return {"src", "tests", "bench", "examples"};
}

bool scan_tree(const std::string& root, const std::vector<std::string>& subdirs,
               Report& report, std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    if (error != nullptr) *error = "not a directory: " + root;
    return false;
  }
  std::vector<std::string> files;
  bool any = false;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::is_directory(dir, ec)) continue;
    any = true;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        if (error != nullptr) *error = "walk failed under " + dir.string();
        return false;
      }
      if (it->is_directory() && it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cpp" && ext != ".cc") {
        continue;
      }
      files.push_back(fs::relative(it->path(), root, ec).generic_string());
    }
  }
  if (!any) {
    if (error != nullptr) {
      *error = "none of the scan roots exist under " + root;
    }
    return false;
  }
  // Deterministic report order regardless of directory enumeration order.
  std::sort(files.begin(), files.end());
  for (const std::string& rel : files) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
      if (error != nullptr) *error = "read failed: " + rel;
      return false;
    }
    scan_file(rel, buf.str(), report);
  }
  return true;
}

json::Value Report::to_json() const {
  json::Value doc = json::Value::object();
  doc["schema"] = "repro-lint-v1";
  doc["files_scanned"] = static_cast<std::int64_t>(files_scanned);
  doc["finding_count"] = static_cast<std::int64_t>(findings.size());
  doc["allowed_count"] = static_cast<std::int64_t>(allowed.size());
  json::Value counts = json::Value::object();
  for (const std::string_view check : kAllChecks) {
    std::int64_t n = 0;
    for (const Finding& f : findings) {
      if (f.check == check) ++n;
    }
    counts[check] = n;
  }
  doc["counts"] = std::move(counts);
  json::Value fs = json::Value::array();
  for (const Finding& f : findings) {
    json::Value v = json::Value::object();
    v["check"] = f.check;
    v["file"] = f.file;
    v["line"] = static_cast<std::int64_t>(f.line);
    v["message"] = f.message;
    v["snippet"] = f.snippet;
    fs.push_back(std::move(v));
  }
  doc["findings"] = std::move(fs);
  json::Value as = json::Value::array();
  for (const AllowEntry& a : allowed) {
    json::Value v = json::Value::object();
    v["check"] = a.check;
    v["file"] = a.file;
    v["line"] = static_cast<std::int64_t>(a.line);
    v["justification"] = a.justification;
    as.push_back(std::move(v));
  }
  doc["allowed"] = std::move(as);
  return doc;
}

}  // namespace ampccut::lint
