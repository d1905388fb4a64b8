// Quickstart: the whole datAcron architecture in ~60 lines.
//
//   1. simulate a small AIS fleet (data source)
//   2. stream it through the DatacronEngine
//      (synopses -> RDF transform -> trajectory mgmt -> CEP)
//   3. ask the spatiotemporal store a question
//   4. ask the live predictor where a vessel will be in 10 minutes
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "datacron/datacron.h"  // umbrella header: the whole public API

using namespace datacron;

int main() {
  // 1. A fleet of 20 vessels sailing the Aegean for 30 simulated minutes.
  AisGeneratorConfig fleet;
  fleet.num_vessels = 20;
  fleet.duration = 30 * kMinute;
  const auto traces = GenerateAisFleet(fleet);
  const auto stream = ObserveFleet(traces, ObservationConfig{});

  // 2. Stream everything through the engine.
  DatacronEngine engine{DatacronEngine::Config{}};
  std::size_t events = 0;
  for (const PositionReport& report : stream) {
    events += engine.Ingest(report).size();
  }
  engine.Finish();

  std::printf("ingested %zu reports from %zu vessels\n",
              engine.reports_ingested(),
              engine.trajectories().EntityCount());
  std::printf("synopses kept %zu critical points (%.0fx compression)\n",
              engine.critical_points(),
              static_cast<double>(engine.reports_ingested()) /
                  engine.critical_points());
  std::printf("transformed into %zu RDF triples, %zu complex events\n",
              engine.triples().size(), events);
  std::printf("per-tuple latency p99: %.4f ms\n",
              engine.MetricsSnapshot().histograms.at("engine.report_ns").p99() /
                  1e6);

  // 3. Query the data, in the text dialect, over a 4-way
  //    Hilbert-partitioned parallel store.
  auto scheme = HilbertPartitioner::Build(4, &engine.rdfizer()->tags(),
                                          engine.rdfizer()->grid());
  PartitionedRdfStore store;
  store.Load(engine.triples(), *scheme, engine.rdfizer()->grid());
  QueryEngine qe(&store, engine.rdfizer());
  const auto parsed = ParseQuery(
      "SELECT ?v WHERE { ?v <rdf:type> <dc:Vessel> . }",
      engine.dictionary());
  const ResultSet rs = qe.ExecuteGlobal(parsed.value().query);
  std::printf("query found %zu vessels (%s)\n", rs.rows.size(),
              rs.stats.ToString().c_str());

  // 4. Forecast: where will the first vessel be in 10 minutes?
  const EntityId vessel = traces.front().entity_id;
  GeoPoint in_ten;
  if (engine.predictor().Predict(vessel, 10 * kMinute, &in_ten)) {
    std::printf("vessel %u forecast @ +10 min: %s\n", vessel,
                ToString(in_ten).c_str());
  }
  return 0;
}
