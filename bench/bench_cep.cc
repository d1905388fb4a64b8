// E9 — Complex event recognition & forecasting.
//
// Paper claim: "recognition and forecasting of complex events and
// patterns due to the movement of entities (e.g. prediction of potential
// collision, capacity demand, hot spots / paths)". Measures per-tuple
// recognition latency/throughput, collision-forecast lead times, capacity
// forecasting, and hotspot detection — the three examples the paper names.
#include <cstdio>

#include "cep/detectors.h"
#include "cep/hotspot.h"
#include "cep/pattern.h"
#include "common/stats.h"
#include "common/time_utils.h"
#include "sources/ais_generator.h"
#include "stream/pipeline.h"

namespace datacron {

void Run() {
  // Congested strait: encounters and near-collisions guaranteed.
  AisGeneratorConfig fleet;
  fleet.num_vessels = 60;
  fleet.duration = kHour;
  fleet.region = BoundingBox::Of(36.0, 24.0, 36.6, 24.6);
  const auto traces = GenerateAisFleet(fleet);
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  const auto reports = ObserveFleet(traces, obs);

  std::printf("E9: complex event recognition & forecasting (%zu reports, "
              "%zu vessels)\n\n",
              reports.size(), fleet.num_vessels);

  // -- proximity/collision pipeline ------------------------------------
  {
    ProximityDetector::Config cfg;
    cfg.region = fleet.region;
    cfg.blocking_cell_deg = 0.05;
    ProximityDetector det(cfg);
    Stopwatch timer;
    const auto events = pipeline::RunBatch(&det, reports);
    const double secs = timer.ElapsedSeconds();

    std::size_t encounters = 0, forecasts = 0;
    PercentileTracker lead_s;
    RunningStats cpa_m;
    for (const Event& e : events) {
      if (e.kind == EventKind::kEncounter) ++encounters;
      if (e.kind == EventKind::kCollisionForecast) {
        ++forecasts;
        lead_s.Add(e.LeadTime() / 1000.0);
        cpa_m.Add(e.attributes.at("cpa_m"));
      }
    }
    const auto& m = det.metrics();
    std::printf("proximity/collision detector:\n");
    std::printf("  throughput          %10.0f reports/s\n",
                reports.size() / secs);
    std::printf("  per-tuple latency   %10.1f us p50, %.1f us p99\n",
                m.latency_ns.p50() / 1e3, m.latency_ns.p99() / 1e3);
    std::printf("  encounters          %10zu\n", encounters);
    std::printf("  collision forecasts %10zu\n", forecasts);
    if (forecasts > 0) {
      std::printf("  forecast lead time  %10.0f s median (p95 %.0f s)\n",
                  lead_s.p50(), lead_s.p95());
      std::printf("  predicted CPA       %10.0f m mean\n", cpa_m.mean());
    }
  }

  // -- capacity demand forecasting --------------------------------------
  {
    std::vector<CapacityMonitor::Sector> sectors;
    sectors.push_back({"strait_west",
                       Polygon::Rectangle(
                           BoundingBox::Of(36.0, 24.0, 36.6, 24.3)),
                       20});
    sectors.push_back({"strait_east",
                       Polygon::Rectangle(
                           BoundingBox::Of(36.0, 24.3, 36.6, 24.6)),
                       20});
    CapacityMonitor::Config cfg;
    cfg.forecast_horizon = 10 * kMinute;
    CapacityMonitor mon(sectors, cfg);
    Stopwatch timer;
    const auto events = pipeline::RunBatch(&mon, reports);
    const double secs = timer.ElapsedSeconds();
    std::size_t warnings = 0, forecasts = 0;
    for (const Event& e : events) {
      if (e.kind == EventKind::kCapacityWarning) ++warnings;
      if (e.kind == EventKind::kCapacityForecast) ++forecasts;
    }
    std::printf("\ncapacity monitor (2 sectors, capacity 20):\n");
    std::printf("  throughput          %10.0f reports/s\n",
                reports.size() / secs);
    std::printf("  overload warnings   %10zu\n", warnings);
    std::printf("  demand forecasts    %10zu (lead %lld s)\n", forecasts,
                static_cast<long long>(cfg.forecast_horizon / 1000));
  }

  // -- hotspot detection & emergence forecasting ------------------------
  {
    HotspotAnalyzer::Config cfg;
    cfg.region = fleet.region;
    cfg.cell_deg = 0.05;
    cfg.zscore_threshold = 2.5;
    HotspotDetector det(cfg, 10 * kMinute);
    Stopwatch timer;
    const auto events = pipeline::RunBatch(&det, reports);
    const double secs = timer.ElapsedSeconds();
    std::size_t hotspots = 0, emerging = 0;
    for (const Event& e : events) {
      if (e.kind == EventKind::kHotspot) ++hotspots;
      if (e.kind == EventKind::kHotspotForecast) ++emerging;
    }
    std::printf("\nhotspot detector (10-min windows, z>=2.5):\n");
    std::printf("  throughput          %10.0f reports/s\n",
                reports.size() / secs);
    std::printf("  hotspot events      %10zu\n", hotspots);
    std::printf("  emergence forecasts %10zu\n", emerging);
  }

  // -- pattern engine over the event stream ------------------------------
  {
    ProximityDetector::Config pcfg;
    pcfg.region = fleet.region;
    pcfg.blocking_cell_deg = 0.05;
    ProximityDetector det(pcfg);
    const auto events = pipeline::RunBatch(&det, reports);

    Pattern pat;
    pat.name = "encounter_then_collision_risk";
    pat.steps = {Pattern::OnKind(EventKind::kEncounter),
                 Pattern::OnKind(EventKind::kCollisionForecast)};
    pat.within = 30 * kMinute;
    PatternMatcher matcher(pat);
    Stopwatch timer;
    const auto composites = pipeline::RunBatch(&matcher, events);
    const double secs = timer.ElapsedSeconds();
    std::printf("\npattern engine (SEQ encounter -> collision_forecast):\n");
    std::printf("  input events        %10zu\n", events.size());
    std::printf("  composite matches   %10zu\n", composites.size());
    std::printf("  throughput          %10.0f events/s\n",
                events.size() / std::max(1e-9, secs));
  }
}

}  // namespace datacron

int main() {
  datacron::Run();
  return 0;
}
