#include "reference/local_join.h"

namespace ajoin {

std::vector<std::pair<size_t, size_t>> ReferenceJoin(
    const std::vector<Row>& rs, const std::vector<Row>& ss,
    const JoinSpec& spec) {
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < rs.size(); ++i) {
    for (size_t j = 0; j < ss.size(); ++j) {
      if (spec.Matches(rs[i], ss[j])) out.emplace_back(i, j);
    }
  }
  return out;
}

}  // namespace ajoin
