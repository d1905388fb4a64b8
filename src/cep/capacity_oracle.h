#ifndef DATACRON_CEP_CAPACITY_ORACLE_H_
#define DATACRON_CEP_CAPACITY_ORACLE_H_

#include <utility>
#include <vector>

#include "cep/detectors.h"
#include "cep/event.h"
#include "common/flat_hash.h"
#include "sources/model.h"

namespace datacron {

/// Full-rescan reference for CapacityMonitor: every report recounts every
/// fresh entity of the fleet against each sector near the report —
/// O(fleet x sectors) per report, no contribution ledger, no expiry heap.
/// Alarms go through the monitor's own evaluation gate and re-alarm
/// state, so its events are the definition the incremental monitor must
/// match byte for byte, and its cost is what E11 measures the monitor
/// against.
class CapacityRescanOracle {
 public:
  CapacityRescanOracle(std::vector<CapacityMonitor::Sector> sectors,
                       CapacityMonitor::Config config)
      : alarms_(std::move(sectors), config) {}

  void Process(const PositionReport& report, std::vector<Event>* out) {
    latest_[report.entity_id] = report;
    const CapacityMonitor::Config& config = alarms_.config_;
    const std::size_t n = alarms_.sectors_.size();
    std::vector<int> occupancy(n, 0);
    std::vector<int> predicted(n, 0);
    BboxContainsBatch(alarms_.eval_bbox_soa_, report.position.ll(),
                      alarms_.bbox_near_.data());
    for (std::size_t si = 0; si < n; ++si) {
      // Only sectors near the reporting entity get re-evaluated.
      if (!alarms_.bbox_near_[si]) continue;
      const Polygon& polygon = alarms_.sectors_[si].polygon;
      latest_.ForEach([&](EntityId, const PositionReport& r) {
        if (report.timestamp - r.timestamp > config.staleness) return;
        if (polygon.Contains(r.position.ll())) ++occupancy[si];
        const GeoPoint future = DeadReckon(
            r.position, r.course_deg, r.speed_mps, r.vertical_rate_mps,
            config.forecast_horizon / 1000.0);
        if (polygon.Contains(future.ll())) ++predicted[si];
      });
    }
    alarms_.EmitAlarms(report, occupancy, predicted, out);
  }

 private:
  /// Supplies the sectors, the evaluation gate and the alarm state; it is
  /// never fed a report.
  CapacityMonitor alarms_;
  FlatHashMap<EntityId, PositionReport> latest_;
};

}  // namespace datacron

#endif  // DATACRON_CEP_CAPACITY_ORACLE_H_
