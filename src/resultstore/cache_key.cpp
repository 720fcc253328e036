#include "resultstore/cache_key.h"

#include "experiment/engine_info.h"
#include "scenfile/scenfile.h"
#include "util/digest.h"

namespace stclock::resultstore {

std::string cell_key(const experiment::ScenarioSpec& spec, std::string_view engine_fp) {
  util::Digest d;
  d.update(scenfile::spec_to_json(experiment::resolved_spec(spec)));
  d.update_u64(spec.seed);
  d.update(engine_fp);
  return d.hex();
}

std::string cell_key(const experiment::ScenarioSpec& spec) {
  return cell_key(spec, experiment::engine_fingerprint());
}

}  // namespace stclock::resultstore
