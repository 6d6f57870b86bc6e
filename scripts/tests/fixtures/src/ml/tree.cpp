// Fixture: sorts in the guarded tree file.
#include <algorithm>
#include <vector>

struct Grower {
  void split(std::vector<int>& v) {
    std::stable_sort(v.begin(), v.end());
  }
};

std::vector<int> presort(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  const auto by = [](std::vector<int>& w) {
    std::ranges::stable_sort(w);
  };
  by(v);
  // std::sort in a comment does not fire
  const char* s = "std::stable_sort in a string does not fire";
  return std::is_sorted(v.begin(), v.end()) ? v : std::vector<int>{};
}
