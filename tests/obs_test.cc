#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace datacron {
namespace {

/// Minimal structural JSON validator: checks quote/brace/bracket balance
/// outside strings. Good enough to catch unescaped quotes, truncation,
/// and trailing commas from the emitters under test.
bool JsonBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control char inside a string
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

class TracingGuard {
 public:
  TracingGuard() {
    obs::TraceCollector::Discard();
    obs::EnableTracing(true);
  }
  ~TracingGuard() {
    obs::EnableTracing(false);
    obs::TraceCollector::Discard();
  }
};

TEST(TraceTest, DisabledSpanRecordsNothing) {
  obs::EnableTracing(false);
  obs::TraceCollector::Discard();
  {
    DATACRON_TRACE_SPAN("noop", "test");
  }
  EXPECT_TRUE(obs::TraceCollector::Drain().empty());
}

TEST(TraceTest, SpanCapturesContextAndDuration) {
  TracingGuard guard;
  {
    obs::ScopedTraceContext ctx(/*epoch=*/7, /*shard=*/3);
    DATACRON_TRACE_SPAN("ctx_span", "test");
  }
  std::vector<obs::TraceSpanRecord> spans = obs::TraceCollector::Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "ctx_span");
  EXPECT_STREQ(spans[0].category, "test");
  EXPECT_EQ(spans[0].epoch, 7);
  EXPECT_EQ(spans[0].shard, 3);
  EXPECT_GE(spans[0].dur_ns, 0);
}

TEST(TraceTest, NestedContextRestoresOuter) {
  TracingGuard guard;
  {
    obs::ScopedTraceContext outer(1, 0);
    {
      obs::ScopedTraceContext inner(2, 5);
      DATACRON_TRACE_SPAN("inner", "test");
    }
    DATACRON_TRACE_SPAN("outer", "test");
  }
  std::vector<obs::TraceSpanRecord> spans = obs::TraceCollector::Drain();
  ASSERT_EQ(spans.size(), 2u);
  // Drain orders by start_ns; inner opened first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].epoch, 2);
  EXPECT_EQ(spans[0].shard, 5);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].epoch, 1);
  EXPECT_EQ(spans[1].shard, 0);
}

TEST(TraceTest, ExplicitEndCommitsOnce) {
  TracingGuard guard;
  {
    obs::TraceSpan span("early", "test");
    span.End();
    span.End();  // second End and the destructor must not double-commit
  }
  EXPECT_EQ(obs::TraceCollector::Drain().size(), 1u);
}

TEST(TraceTest, ConcurrentThreadsAllSpansCollected) {
  TracingGuard guard;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::ScopedTraceContext ctx(/*epoch=*/t, /*shard=*/t);
      for (int i = 0; i < kSpansPerThread; ++i) {
        DATACRON_TRACE_SPAN("worker", "test");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<obs::TraceSpanRecord> spans = obs::TraceCollector::Drain();
  EXPECT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
  }
  // Each thread's spans carry that thread's context.
  std::map<std::uint32_t, std::int64_t> epoch_by_tid;
  for (const obs::TraceSpanRecord& s : spans) {
    auto [it, inserted] = epoch_by_tid.emplace(s.tid, s.epoch);
    EXPECT_EQ(it->second, s.epoch);
  }
  EXPECT_EQ(epoch_by_tid.size(), static_cast<std::size_t>(kThreads));
}

TEST(TraceTest, ChromeJsonWellFormed) {
  TracingGuard guard;
  {
    obs::ScopedTraceContext ctx(42, 1);
    DATACRON_TRACE_SPAN("json \"quoted\" name\\path", "cat");
  }
  std::vector<obs::TraceSpanRecord> spans = obs::TraceCollector::Drain();
  ASSERT_EQ(spans.size(), 1u);
  const std::string json = obs::ChromeTraceJson(spans);
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":42"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":1"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // The raw quote and backslash must have been escaped.
  EXPECT_NE(json.find("json \\\"quoted\\\" name\\\\path"),
            std::string::npos);
}

TEST(TraceTest, WriteChromeTraceFile) {
  TracingGuard guard;
  { DATACRON_TRACE_SPAN("file_span", "test"); }
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::WriteChromeTraceFile(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(JsonBalanced(buf.str()));
  EXPECT_NE(buf.str().find("file_span"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsTest, CounterConcurrentAdds) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.Add();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(MetricsTest, AtomicHistogramMatchesLogHistogram) {
  obs::AtomicLogHistogram atomic;
  LogHistogram plain;
  const double samples[] = {0, 1, 2, 3, 4, 100, 1024, 1e15, -5};
  for (double x : samples) {
    atomic.Observe(x);
    plain.Add(x);
  }
  EXPECT_EQ(atomic.Snapshot(), plain);
  EXPECT_EQ(atomic.Count(), plain.count());
}

TEST(MetricsTest, RegistryPointersStable) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* a = reg.counter("obs_test.stable");
  obs::Counter* b = reg.counter("obs_test.stable");
  EXPECT_EQ(a, b);
  a->Add(3);
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_GE(snap.counters["obs_test.stable"], 3u);
}

TEST(MetricsTest, SnapshotMergeDeterministic) {
  obs::MetricsSnapshot a;
  a.AddCounter("x", 2);
  a.AddCounter("only_a", 1);
  LogHistogram ha;
  ha.Add(10);
  a.AddHistogram("h", ha);

  obs::MetricsSnapshot b;
  b.AddCounter("x", 5);
  LogHistogram hb;
  hb.Add(1000);
  b.AddHistogram("h", hb);
  b.AddGauge("g", 7);

  obs::MetricsSnapshot ab = a;
  ab.Merge(b);
  obs::MetricsSnapshot ba = b;
  ba.Merge(a);

  EXPECT_EQ(ab.counters["x"], 7u);
  EXPECT_EQ(ab.counters["only_a"], 1u);
  EXPECT_EQ(ab.histograms["h"].count(), 2u);
  // Counters and histograms commute; merge order never changes them.
  EXPECT_EQ(ab.counters, ba.counters);
  EXPECT_EQ(ab.histograms, ba.histograms);
  EXPECT_EQ(ab.ToText(), ba.ToText());
}

TEST(MetricsTest, SnapshotTextAndJsonStable) {
  obs::MetricsSnapshot snap;
  snap.AddCounter("b.second", 2);
  snap.AddCounter("a.first", 1);
  snap.AddGauge("g", -4);
  LogHistogram h;
  h.Add(5);
  snap.AddHistogram("lat", h);

  const std::string text = snap.ToText();
  // Sorted by name: a.first before b.second.
  EXPECT_LT(text.find("a.first"), text.find("b.second"));

  const std::string json = snap.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"a.first\":1"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);

  // Histogram JSON round-trips through AddBucketCount semantics: the
  // emitted [bucket, count] pairs rebuild an equal histogram.
  LogHistogram rebuilt;
  for (std::size_t b = 0; b < LogHistogram::num_buckets(); ++b) {
    rebuilt.AddBucketCount(b, h.bucket_count(b));
  }
  EXPECT_EQ(rebuilt, h);
}

}  // namespace
}  // namespace datacron
