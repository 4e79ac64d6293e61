// Clean twin: saturating sums on Weight names, and += on names of other
// types, even beside Weight declarations and casts.
#include <cstdint>
#include <vector>

Weight total(const std::vector<Weight>& ws, std::uint64_t& count) {
  Weight sum = 0;
  std::vector<std::uint64_t> hist(4, 0);
  for (const Weight w : ws) {
    sum = sat_add(sum, w);
    count += 1;
    hist[w % 4] += static_cast<Weight>(1);
  }
  return sum;
}
