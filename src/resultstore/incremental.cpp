#include "resultstore/incremental.h"

#include <optional>
#include <utility>

#include "resultstore/cache_key.h"

namespace stclock::resultstore {

std::vector<experiment::ScenarioResult> run_cells_cached(
    const std::vector<experiment::SweepCell>& cells, const ResultStore* store,
    unsigned threads, bool use_cache, CacheStats* stats) {
  const experiment::SweepRunner runner(threads);
  if (stats) *stats = CacheStats{};
  if (!store) {
    if (stats) stats->misses = cells.size();
    return runner.run(cells);
  }

  std::vector<std::string> keys;
  keys.reserve(cells.size());
  for (const experiment::SweepCell& cell : cells) keys.push_back(cell_key(cell.spec));

  std::vector<experiment::ScenarioResult> results(cells.size());
  std::vector<std::size_t> miss_indices;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (use_cache) {
      if (std::optional<experiment::ScenarioResult> hit = store->load(keys[i])) {
        results[i] = std::move(*hit);
        results[i].metric_regime = experiment::metric_regime(cells[i].spec.cfg.n);
        if (stats) ++stats->hits;
        continue;
      }
    }
    miss_indices.push_back(i);
  }
  if (stats) stats->misses = miss_indices.size();
  if (miss_indices.empty()) return results;

  std::vector<experiment::SweepCell> miss_cells;
  miss_cells.reserve(miss_indices.size());
  for (const std::size_t i : miss_indices) miss_cells.push_back(cells[i]);

  std::vector<experiment::ScenarioResult> fresh = runner.run(miss_cells);
  for (std::size_t j = 0; j < miss_indices.size(); ++j) {
    store->save(keys[miss_indices[j]], fresh[j]);
    results[miss_indices[j]] = std::move(fresh[j]);
  }
  return results;
}

}  // namespace stclock::resultstore
