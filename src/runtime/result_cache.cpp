#include "runtime/result_cache.hpp"

namespace si::runtime {

ResultCache<std::vector<double>>& series_cache() {
  static ResultCache<std::vector<double>> cache(256);
  return cache;
}

}  // namespace si::runtime
