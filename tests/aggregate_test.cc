#include <gtest/gtest.h>

#include <memory>

#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "query/aggregate.h"
#include "query/engine.h"
#include "rdf/rdfizer.h"
#include "sources/ais_generator.h"

namespace datacron {
namespace {

ResultSet MakeResults(TermDictionary* dict) {
  // Rows: (group, value) with values as double literals.
  ResultSet rs;
  const TermId g1 = dict->Intern("ent:1");
  const TermId g2 = dict->Intern("ent:2");
  auto val = [dict](double x) { return dict->InternDouble(x); };
  rs.rows = {
      {g1, val(2.0)}, {g1, val(4.0)}, {g1, val(6.0)},
      {g2, val(10.0)}, {g2, val(20.0)},
  };
  return rs;
}

TEST(AggregateTest, CountPerGroup) {
  TermDictionary dict;
  const ResultSet rs = MakeResults(&dict);
  auto agg = Aggregate(rs, 0, 1, AggregateFn::kCount, dict);
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg.value().size(), 2u);
  EXPECT_DOUBLE_EQ(agg.value()[0].value, 3.0);  // ent:1 has 3 rows
  EXPECT_DOUBLE_EQ(agg.value()[1].value, 2.0);
}

TEST(AggregateTest, AvgSumMinMax) {
  TermDictionary dict;
  const ResultSet rs = MakeResults(&dict);
  auto avg = Aggregate(rs, 0, 1, AggregateFn::kAvg, dict);
  ASSERT_TRUE(avg.ok());
  // Ordered by descending value: ent:2 avg 15 first.
  EXPECT_DOUBLE_EQ(avg.value()[0].value, 15.0);
  EXPECT_DOUBLE_EQ(avg.value()[1].value, 4.0);

  auto sum = Aggregate(rs, 0, 1, AggregateFn::kSum, dict);
  EXPECT_DOUBLE_EQ(sum.value()[0].value, 30.0);
  EXPECT_DOUBLE_EQ(sum.value()[1].value, 12.0);

  auto mn = Aggregate(rs, 0, 1, AggregateFn::kMin, dict);
  EXPECT_DOUBLE_EQ(mn.value()[0].value, 10.0);
  auto mx = Aggregate(rs, 0, 1, AggregateFn::kMax, dict);
  EXPECT_DOUBLE_EQ(mx.value()[0].value, 20.0);
}

TEST(AggregateTest, NonNumericValuesSkipped) {
  TermDictionary dict;
  ResultSet rs;
  const TermId g = dict.Intern("ent:1");
  rs.rows = {{g, dict.Intern("not-a-number")},
             {g, dict.InternDouble(8.0)}};
  auto avg = Aggregate(rs, 0, 1, AggregateFn::kAvg, dict);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(avg.value()[0].value, 8.0);
  EXPECT_EQ(avg.value()[0].count, 2u);
}

TEST(AggregateTest, InlineAndDictionaryNumbersBothCount) {
  // Inline ints and doubles are read from the id, dictionary literals
  // (here a non-canonical spelling) from their text; dateTimes are not
  // numbers either way.
  TermDictionary dict;
  ResultSet rs;
  const TermId g = dict.Intern("ent:1");
  rs.rows = {{g, dict.InternInt(4)},
             {g, dict.InternDouble(8.5)},
             {g, dict.Intern("12.50", TermKind::kLiteralDouble)},
             {g, dict.InternDateTime(1000)}};
  auto sum = Aggregate(rs, 0, 1, AggregateFn::kSum, dict);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value()[0].value, 25.0);
  EXPECT_EQ(sum.value()[0].count, 4u);
  auto max = Aggregate(rs, 0, 1, AggregateFn::kMax, dict);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(max.value()[0].value, 12.5);
}

TEST(AggregateTest, BadVariableIndexFails) {
  TermDictionary dict;
  const ResultSet rs = MakeResults(&dict);
  EXPECT_FALSE(Aggregate(rs, 7, 1, AggregateFn::kCount, dict).ok());
  EXPECT_FALSE(Aggregate(rs, 0, 7, AggregateFn::kAvg, dict).ok());
}

TEST(AggregateTest, TableFormatting) {
  TermDictionary dict;
  const ResultSet rs = MakeResults(&dict);
  auto agg = Aggregate(rs, 0, 1, AggregateFn::kAvg, dict);
  ASSERT_TRUE(agg.ok());
  const std::string table =
      AggregateTable(agg.value(), dict, "entity", "avg_speed");
  EXPECT_NE(table.find("ent:2"), std::string::npos);
  EXPECT_NE(table.find("15.00"), std::string::npos);
}

TEST(AggregateTest, MeanSpeedPerVesselEndToEnd) {
  // Integration: average reported speed per vessel via query + aggregate.
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  AisGeneratorConfig fleet;
  fleet.num_vessels = 5;
  fleet.duration = 20 * kMinute;
  ObservationConfig obs;
  std::vector<Triple> triples;
  for (const auto& r : ObserveFleet(GenerateAisFleet(fleet), obs)) {
    const auto ts = rdfizer.TransformReport(r);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  HashPartitioner scheme(2, &rdfizer.tags());
  PartitionedRdfStore store;
  store.Load(triples, scheme, rdfizer.grid());
  QueryEngine engine(&store, &rdfizer);

  QueryBuilder qb;
  qb.WhereVar("node", vocab.p_of_entity, "vessel");
  qb.WhereVar("node", vocab.p_speed, "speed");
  const Query q = qb.Build();
  const ResultSet rs = engine.ExecuteGlobal(q);
  ASSERT_FALSE(rs.rows.empty());
  // vars: node=0, vessel=1, speed=2.
  auto agg = Aggregate(rs, 1, 2, AggregateFn::kAvg, dict);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.value().size(), 5u);
  for (const AggregateRow& row : agg.value()) {
    EXPECT_GT(row.value, 0.0);
    EXPECT_LT(row.value, 15.0);  // max ~22 kn
  }
}

}  // namespace
}  // namespace datacron
