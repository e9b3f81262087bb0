// The serving scheduler's conflict ledger: which vertices the in-flight
// batches write and read. A batch is admitted head-of-line once its WRITE
// footprint (edge endpoints) touches nothing in flight and, with read
// tracking, its READ footprint (sampled neighbors) overlaps no in-flight
// write. Batches sharing a vertex therefore run in stream order, which
// keeps per-vertex state writes chronological (DESIGN.md §2b).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/temporal_graph.hpp"

namespace tgnn::runtime {

/// Hazard-ledger audit primitive: TGNN_CHECK-aborts unless every vertex id
/// appears in at most one of the given footprints — the disjointness that
/// head-of-line admission is supposed to maintain across in-flight batches,
/// restated as an executable contract over the raw footprints instead of
/// the mark counters it normally trusts. A checked build
/// (-DTGNN_CHECKED=ON) runs it over the in-flight write footprints after
/// every HazardLedger::acquire.
void audit_disjoint_footprints(
    std::span<const std::span<const graph::NodeId>> footprints);

/// Per-vertex counts of in-flight writers and readers. Not synchronized:
/// the ServingEngine owns one under its mutex.
class HazardLedger {
 public:
  using Footprint = std::span<const graph::NodeId>;

  /// Vertex ids [0, num_nodes), nothing in flight.
  explicit HazardLedger(std::size_t num_nodes = 0)
      : write_(num_nodes, 0), full_(num_nodes, 0) {}

  /// No in-flight batch reads or writes any vertex of `wfp`.
  [[nodiscard]] bool writes_clear(Footprint wfp) const;
  /// No in-flight batch writes any vertex of `rfp`.
  [[nodiscard]] bool reads_clear(Footprint rfp) const;
  /// Nothing is in flight.
  [[nodiscard]] bool empty() const;

  /// Mark a batch in flight (deduplicated footprints). A checked build then
  /// audits the in-flight write footprints for pairwise disjointness.
  void acquire(Footprint wfp, Footprint rfp);
  /// Unmark a batch acquired with exactly these footprints. Releasing a
  /// vertex that is not marked dies in a checked build.
  void release(Footprint wfp, Footprint rfp);

 private:
  std::vector<std::uint32_t> write_;  ///< in-flight batches writing v
  std::vector<std::uint32_t> full_;   ///< ... writing or reading v
  /// Checked build only: the in-flight write footprints the audit reads.
  std::vector<std::vector<graph::NodeId>> held_;
};

}  // namespace tgnn::runtime
