// Allowlisted twin: a raw sum whose operands are finite by construction,
// with that argument in the justification.
#include <vector>

Weight count_edges(const std::vector<int>& edges) {
  Weight m = 0;
  // repro-lint: allow(weight-add) counts edges; never near kInfiniteWeight
  for (int e : edges) m += static_cast<Weight>(e >= 0);
  return m;
}
