#include "runtime/hazard_ledger.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/check.hpp"

namespace tgnn::runtime {

void audit_disjoint_footprints(
    std::span<const std::span<const graph::NodeId>> footprints) {
  std::unordered_set<graph::NodeId> seen;
  std::size_t total = 0;
  for (const auto& fp : footprints) total += fp.size();
  seen.reserve(total);
  for (const auto& fp : footprints)
    for (const graph::NodeId v : fp)
      TGNN_CHECK(seen.insert(v).second,
                 "hazard audit: vertex " + std::to_string(v) +
                     " appears in two in-flight footprints");
}

bool HazardLedger::writes_clear(Footprint wfp) const {
  return std::all_of(wfp.begin(), wfp.end(),
                     [&](graph::NodeId v) { return full_[v] == 0; });
}

bool HazardLedger::reads_clear(Footprint rfp) const {
  return std::all_of(rfp.begin(), rfp.end(),
                     [&](graph::NodeId v) { return write_[v] == 0; });
}

bool HazardLedger::empty() const {
  return std::all_of(full_.begin(), full_.end(),
                     [](std::uint32_t n) { return n == 0; });
}

void HazardLedger::acquire(Footprint wfp, Footprint rfp) {
  for (const graph::NodeId v : wfp) {
    ++write_[v];
    ++full_[v];
  }
  for (const graph::NodeId v : rfp) ++full_[v];
  if constexpr (util::kCheckedBuild) {
    held_.emplace_back(wfp.begin(), wfp.end());
    audit_disjoint_footprints(
        std::vector<Footprint>(held_.begin(), held_.end()));
  }
}

void HazardLedger::release(Footprint wfp, Footprint rfp) {
  for (const graph::NodeId v : wfp) {
    TGNN_DCHECK(write_[v] > 0, "hazard ledger: write-mark release underflow");
    --write_[v];
    --full_[v];
  }
  for (const graph::NodeId v : rfp) {
    TGNN_DCHECK(full_[v] > 0, "hazard ledger: read-mark release underflow");
    --full_[v];
  }
  if constexpr (util::kCheckedBuild) {
    const auto it =
        std::find_if(held_.begin(), held_.end(), [&](const auto& h) {
          return std::equal(h.begin(), h.end(), wfp.begin(), wfp.end());
        });
    TGNN_CHECK(it != held_.end(),
               "hazard audit: released a write footprint never acquired");
    held_.erase(it);
  }
}

}  // namespace tgnn::runtime
