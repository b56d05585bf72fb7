// The library half of the per-layer ledger, measured in every traced run on
// the workload's own instances: SIMD strip ops -> full evaluation ->
// TrialBatch -> SE's three operators (replayed from their public parts) ->
// engine steps of every searcher, plus the prepared-trial mode, the
// PreparedLru hit share and the cost of an ambient metrics registry.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "hc/workload.h"

namespace perfbench {

/// Sets sched.*, se.*, search.* and obs.* values in `report`. `instances`
/// are the workload's inputs (the first few are used), `se_steps` the SE
/// step budget its solves run with. A replay whose best makespan differs
/// from SeEngine's in any bit counts as a failed solve.
void measure_library_layers(const std::vector<const sehc::Workload*>& instances,
                            std::size_t se_steps, std::uint64_t seed,
                            Report& report);

}  // namespace perfbench
