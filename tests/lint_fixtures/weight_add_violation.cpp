// Seeded violations for the weight-add check (enforced only for src/ paths):
// raw += on names declared Weight or std::vector<Weight>.
#include <vector>

Weight total(const std::vector<Weight>& ws, std::vector<Weight>& acc) {
  Weight sum = 0;
  for (const Weight w : ws) {
    sum += w;
    acc[ws.size() - 1] += w;
  }
  acc [0]  +=  sum;
  return sum;
}
