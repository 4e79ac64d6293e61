#include "common.h"

#include <sys/resource.h>

#include <charconv>
#include <cmath>

namespace cutbench {

namespace {

// Shortest round-trip form: every digit as measured. Non-finite values
// print as null, which the runner rejects.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace

std::string MetricSet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + items_[i].name + "\": {\"value\": " + number(items_[i].value) +
           ", \"unit\": \"" + items_[i].unit + "\"}";
  }
  return out + "}";
}

SpanTree::SpanTree(const std::vector<Trace::Span>& spans)
    : spans_(spans), children_(spans.size()) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children_[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
}

std::vector<std::int32_t> SpanTree::descendants(std::int32_t root,
                                                const std::string& name) const {
  std::vector<std::int32_t> out;
  std::vector<std::int32_t> stack(children(root).rbegin(), children(root).rend());
  while (!stack.empty()) {
    const std::int32_t id = stack.back();
    stack.pop_back();
    if (name == span(id).name) out.push_back(id);
    stack.insert(stack.end(), children(id).rbegin(), children(id).rend());
  }
  return out;
}

std::int64_t SpanTree::busy_ns(std::int32_t root, const std::string& name) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const std::int32_t d : descendants(root, name)) {
    iv.emplace_back(span(d).start, span(d).end);
  }
  return union_ns(std::move(iv), span(root).start, span(root).end);
}

std::int64_t SpanTree::sum_ns(std::int32_t root, const std::string& name) const {
  std::int64_t total = 0;
  for (const std::int32_t d : descendants(root, name)) total += duration(d);
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace cutbench
