#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "common/strings.h"
#include "sources/ais_generator.h"
#include "sources/nmea.h"
#include "fuzz_mutations.h"

namespace datacron {
namespace {

PositionReport SampleReport() {
  PositionReport r;
  r.entity_id = 237456789;  // Greek-flag MMSI range
  r.domain = Domain::kMaritime;
  r.timestamp = 1490054425000;  // :25 within the minute
  r.position = {37.12345, 24.65432, 0};
  r.speed_mps = 14.3 * kKnotsToMps;
  r.course_deg = 213.7;
  return r;
}

TEST(NmeaTest, SentenceFraming) {
  const std::string s = EncodeAivdm(SampleReport());
  EXPECT_EQ(s[0], '!');
  EXPECT_EQ(s.substr(1, 5), "AIVDM");
  EXPECT_NE(s.find("*"), std::string::npos);
  // 168 bits -> 28 armored chars.
  const auto fields = Split(s.substr(0, s.find('*')), ',');
  ASSERT_EQ(fields.size(), 7u);
  EXPECT_EQ(fields[5].size(), 28u);
}

TEST(NmeaTest, RoundTripFields) {
  const PositionReport original = SampleReport();
  const std::string sentence = EncodeAivdm(original);
  const auto decoded = DecodeAivdm(sentence, original.timestamp + 5000);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const PositionReport& d = decoded.value();
  EXPECT_EQ(d.entity_id, original.entity_id);
  // Position quantization: 1/10000 arc-minute ~ 0.19 m.
  EXPECT_NEAR(d.position.lat_deg, original.position.lat_deg, 1e-5);
  EXPECT_NEAR(d.position.lon_deg, original.position.lon_deg, 1e-5);
  // SOG quantization: 0.1 kn.
  EXPECT_NEAR(d.speed_mps, original.speed_mps, 0.1 * kKnotsToMps);
  // COG quantization: 0.1 deg.
  EXPECT_NEAR(d.course_deg, original.course_deg, 0.11);
  // Timestamp: second-of-minute recovered against the receive time.
  EXPECT_EQ(d.timestamp, original.timestamp);
}

TEST(NmeaTest, SouthernWesternHemisphere) {
  PositionReport r = SampleReport();
  r.position = {-33.85, -70.6, 0};  // signed lat/lon
  const auto decoded = DecodeAivdm(EncodeAivdm(r), r.timestamp);
  ASSERT_TRUE(decoded.ok());
  EXPECT_NEAR(decoded.value().position.lat_deg, -33.85, 1e-5);
  EXPECT_NEAR(decoded.value().position.lon_deg, -70.6, 1e-5);
}

TEST(NmeaTest, AnchoredVesselNavStatus) {
  PositionReport r = SampleReport();
  r.speed_mps = 0.0;
  const auto decoded = DecodeAivdm(EncodeAivdm(r), r.timestamp);
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded.value().speed_mps, 0.0);
}

TEST(NmeaTest, FastVesselSogCap) {
  PositionReport r = SampleReport();
  r.speed_mps = 200 * kKnotsToMps;  // beyond the 102.2 kn field cap
  const auto decoded = DecodeAivdm(EncodeAivdm(r), r.timestamp);
  ASSERT_TRUE(decoded.ok());
  EXPECT_NEAR(decoded.value().speed_mps, 102.2 * kKnotsToMps, 0.1);
}

TEST(NmeaTest, ChecksumValidation) {
  std::string s = EncodeAivdm(SampleReport());
  // Corrupt one payload character.
  s[20] = s[20] == 'A' ? 'B' : 'A';
  EXPECT_FALSE(DecodeAivdm(s, 0).ok());
}

TEST(NmeaTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeAivdm("", 0).ok());
  EXPECT_FALSE(DecodeAivdm("$GPGGA,foo*00", 0).ok());
  EXPECT_FALSE(DecodeAivdm("!AIVDM,2,1,,A,blah,0*00", 0).ok());
  EXPECT_FALSE(DecodeAivdm("!AIVDM,nochecksum", 0).ok());
}

TEST(NmeaTest, StreamRoundTripOnFleet) {
  AisGeneratorConfig cfg;
  cfg.num_vessels = 10;
  cfg.duration = 10 * kMinute;
  const auto traces = GenerateAisFleet(cfg);
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  const auto reports = ObserveFleet(traces, obs);
  const std::string feed = EncodeAivdmStream(reports);

  // Decode each minute against a receive time inside that minute; here
  // all reports are within a 10-minute window so decode per report.
  AivdmDecodeStats stats;
  std::size_t i = 0;
  std::size_t matches = 0;
  std::size_t start = 0;
  while (start < feed.size() && i < reports.size()) {
    std::size_t end = feed.find('\n', start);
    if (end == std::string::npos) end = feed.size();
    const std::string line = feed.substr(start, end - start);
    start = end + 1;
    const auto decoded = DecodeAivdm(line, reports[i].timestamp);
    ASSERT_TRUE(decoded.ok());
    if (decoded.value().entity_id == reports[i].entity_id &&
        decoded.value().timestamp == reports[i].timestamp) {
      ++matches;
    }
    ++i;
  }
  EXPECT_EQ(matches, reports.size());
  (void)stats;
}

TEST(NmeaTest, StreamDecoderSkipsCorruptLines) {
  const auto r = SampleReport();
  std::string feed = EncodeAivdm(r) + "\ngarbage line\n" + EncodeAivdm(r) +
                     "\n!AIVDM,1,1,,A,zzz,0*00\n";
  AivdmDecodeStats stats;
  const auto decoded = DecodeAivdmStream(feed, r.timestamp, &stats);
  EXPECT_EQ(decoded.size(), 2u);
  EXPECT_EQ(stats.decoded, 2u);
  EXPECT_EQ(stats.failed, 2u);
}

TEST(NmeaFuzzTest, MutatedSentencesYieldStatusNeverCrash) {
  const PositionReport r = SampleReport();
  const std::string sentence = EncodeAivdm(r);
  ASSERT_TRUE(DecodeAivdm(sentence, r.timestamp).ok());
  // A strict prefix loses checksum characters, so it never decodes.
  ForEachPrefix(sentence, [&](const std::string& prefix) {
    EXPECT_FALSE(DecodeAivdm(prefix, r.timestamp).ok()) << prefix;
  });
  ForEachByteCorruption(sentence, [&](const std::string& mutant) {
    (void)DecodeAivdm(mutant, r.timestamp);
  });
}

TEST(NmeaFuzzTest, MutatedPayloadsBehindAValidChecksumYieldStatus) {
  // A corrupt byte rarely survives the XOR checksum, so the test above
  // mostly exercises the checksum gate. Re-framing every mutated body
  // with a matching checksum drives the field decoder itself.
  const PositionReport r = SampleReport();
  const std::string sentence = EncodeAivdm(r);
  const std::string body = sentence.substr(1, sentence.rfind('*') - 1);
  const auto reframe = [](const std::string& b) {
    int sum = 0;
    for (const char c : b) sum ^= static_cast<unsigned char>(c);
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02X", sum);
    return "!" + b + "*" + hex;
  };
  ASSERT_EQ(reframe(body), sentence);
  const auto check = [&](const std::string& b) {
    (void)DecodeAivdm(reframe(b), r.timestamp);
  };
  ForEachPrefix(body, check);
  ForEachByteCorruption(body, check);
}

TEST(NmeaFuzzTest, StreamDecoderSkipsEveryMutatedLine) {
  PositionReport a = SampleReport();
  PositionReport b = SampleReport();
  b.entity_id = 244000001;
  b.position = {-33.85, -70.6, 0};
  const std::string feed =
      EncodeAivdmStream({a, b}) + EncodeAivdm(a) + "\n";
  const auto check = [&](const std::string& text) {
    AivdmDecodeStats stats;
    const auto decoded = DecodeAivdmStream(text, a.timestamp, &stats);
    EXPECT_EQ(decoded.size(), stats.decoded);
    // Three sentences in; a corrupt byte can split one line in two.
    EXPECT_LE(stats.decoded + stats.failed, 4u);
  };
  ForEachPrefix(feed, check);
  ForEachByteCorruption(feed, check);
}

TEST(NmeaStaticTest, NameRoundTrip) {
  StaticInfo info;
  info.entity_id = 237456789;
  info.name = "AEGEAN PEARL 7";
  const std::string s = EncodeAivdmStatic(info);
  EXPECT_EQ(s.substr(0, 6), "!AIVDM");
  const auto decoded = DecodeAivdmStatic(s);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().entity_id, info.entity_id);
  EXPECT_EQ(decoded.value().name, info.name);
}

TEST(NmeaStaticTest, LowercaseUpcased) {
  StaticInfo info;
  info.entity_id = 1;
  info.name = "blue bird";
  const auto decoded = DecodeAivdmStatic(EncodeAivdmStatic(info));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().name, "BLUE BIRD");
}

TEST(NmeaStaticTest, LongNameTruncatedAt20) {
  StaticInfo info;
  info.entity_id = 1;
  info.name = "THIS NAME IS WAY TOO LONG FOR AIS";
  const auto decoded = DecodeAivdmStatic(EncodeAivdmStatic(info));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().name.size(), 20u);
  EXPECT_EQ(decoded.value().name, "THIS NAME IS WAY TOO");
}

TEST(NmeaStaticTest, PositionSentenceRejected) {
  const auto pos = EncodeAivdm(SampleReport());
  EXPECT_FALSE(DecodeAivdmStatic(pos).ok());
}

TEST(NmeaStaticTest, EmptyName) {
  StaticInfo info;
  info.entity_id = 5;
  const auto decoded = DecodeAivdmStatic(EncodeAivdmStatic(info));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().name, "");
}

class NmeaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NmeaPropertyTest, RandomReportsRoundTrip) {
  Rng rng(7100 + GetParam());
  PositionReport r;
  r.entity_id = static_cast<EntityId>(rng.UniformInt(1, 999999999));
  r.domain = Domain::kMaritime;
  r.timestamp = 1490000000000 + rng.UniformInt(0, 86400000);
  r.position = {rng.Uniform(-89, 89), rng.Uniform(-179.9, 179.9), 0};
  r.speed_mps = rng.Uniform(0, 50 * kKnotsToMps);
  r.course_deg = rng.Uniform(0, 359.9);
  const auto decoded = DecodeAivdm(EncodeAivdm(r), r.timestamp);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().entity_id, r.entity_id);
  EXPECT_NEAR(decoded.value().position.lat_deg, r.position.lat_deg, 1e-5);
  EXPECT_NEAR(decoded.value().position.lon_deg, r.position.lon_deg, 1e-5);
  EXPECT_NEAR(decoded.value().speed_mps, r.speed_mps,
              0.06 * kKnotsToMps + 1e-9);
  EXPECT_NEAR(decoded.value().course_deg, r.course_deg, 0.06);
  EXPECT_EQ(decoded.value().timestamp, r.timestamp / 1000 * 1000);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NmeaPropertyTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace datacron
