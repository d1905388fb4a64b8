#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/csv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"

namespace datacron {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto fields = Split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(StringsTest, SplitSingleField) {
  const auto fields = Split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, JoinRoundTripsSplit) {
  const std::vector<std::string> parts = {"a", "bb", "ccc"};
  EXPECT_EQ(Join(parts, ","), "a,bb,ccc");
  EXPECT_EQ(Split(Join(parts, ";"), ';'), parts);
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("node:123", "node:"));
  EXPECT_FALSE(StartsWith("no", "node:"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StringsTest, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("3.25x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringsTest, ParseInt64Strict) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-12345678901", &v));
  EXPECT_EQ(v, -12345678901LL);
  EXPECT_FALSE(ParseInt64("12.5", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  // Long output is not truncated.
  const std::string big = StrFormat("%0512d", 1);
  EXPECT_EQ(big.size(), 512u);
}

// ---------------------------------------------------------------- CSV

TEST(CsvTest, PlainRow) {
  CsvWriter w;
  CsvReader r;
  const std::string line = w.FormatRow({"a", "b", "c"});
  EXPECT_EQ(line, "a,b,c");
  auto parsed = r.ParseRow(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, QuotedRoundTrip) {
  CsvWriter w;
  CsvReader r;
  const std::vector<std::string> fields = {"a,b", "say \"hi\"", "plain"};
  auto parsed = r.ParseRow(w.FormatRow(fields));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), fields);
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  CsvReader r;
  EXPECT_FALSE(r.ParseRow("\"abc").ok());
}

TEST(CsvTest, EmptyLineIsOneEmptyField) {
  CsvReader r;
  auto parsed = r.ParseRow("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 1u);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// ---------------------------------------------------------------- Stats

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(23);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(0, 1);
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(PercentileTrackerTest, KnownPercentiles) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.Add(i);
  EXPECT_NEAR(t.p50(), 50.5, 0.6);
  EXPECT_NEAR(t.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(t.Max(), 100.0, 1e-9);
  EXPECT_GT(t.p99(), 98.0);
}

TEST(PercentileTrackerTest, AddAfterReadResorts) {
  // A read sorts the samples; samples added afterwards must be sorted
  // into place before the next read, not interpolated as an unsorted tail.
  PercentileTracker t;
  for (int i = 10; i <= 19; ++i) t.Add(i);
  EXPECT_DOUBLE_EQ(t.p50(), 14.5);
  for (int i = 0; i <= 4; ++i) t.Add(i);
  EXPECT_DOUBLE_EQ(t.p50(), 12.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(t.Max(), 19.0);
}

TEST(PercentileTrackerTest, EmptyReturnsZero) {
  PercentileTracker t;
  EXPECT_DOUBLE_EQ(t.p50(), 0.0);
}

TEST(HistogramTest, BinningAndOverflow) {
  Histogram h(0, 10, 10);
  h.Add(-1);
  h.Add(0);
  h.Add(9.99);
  h.Add(10);
  h.Add(5.5);
  EXPECT_EQ(h.TotalCount(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.BinCount(0), 1u);
  EXPECT_EQ(h.BinCount(9), 1u);
  EXPECT_EQ(h.BinCount(5), 1u);
  EXPECT_FALSE(h.ToString().empty());
}

TEST(LogHistogramTest, BucketBoundaries) {
  // Bucket 0 holds zeros (and negatives, clamped); bucket b>0 covers
  // [2^(b-1), 2^b).
  LogHistogram h;
  h.Add(0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  h.Add(-3);
  EXPECT_EQ(h.bucket_count(0), 2u);
  h.Add(1);  // [1, 2) -> bucket 1
  EXPECT_EQ(h.bucket_count(1), 1u);
  h.Add(2);  // [2, 4) -> bucket 2
  h.Add(3);
  EXPECT_EQ(h.bucket_count(2), 2u);
  h.Add(4);  // [4, 8) -> bucket 3
  EXPECT_EQ(h.bucket_count(3), 1u);
  h.Add(1023);  // [512, 1024) -> bucket 10
  h.Add(1024);  // [1024, 2048) -> bucket 11
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  EXPECT_EQ(h.count(), 8u);
}

TEST(LogHistogramTest, HugeValuesLandInLastBucket) {
  LogHistogram h;
  h.Add(1.5e19);  // beyond 2^63 — must cap at the last bucket
  h.Add(9.9e18);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(LogHistogram::num_buckets() - 1), 2u);
  // Percentile stays finite and answers from the top bucket.
  EXPECT_GT(h.p99(), 0.0);
}

TEST(LogHistogramTest, AddWithCountEqualsRepeatedAdds) {
  LogHistogram once, repeated;
  once.Add(1500.0, 7);
  once.Add(0.0, 2);
  for (int i = 0; i < 7; ++i) repeated.Add(1500.0);
  for (int i = 0; i < 2; ++i) repeated.Add(0.0);
  EXPECT_EQ(once, repeated);
  EXPECT_EQ(once.count(), 9u);
}

TEST(LogHistogramTest, AddBucketCountRoundTrip) {
  LogHistogram h;
  for (double x : {0.0, 1.0, 7.0, 100.0, 5000.0, 1e12}) h.Add(x);
  LogHistogram rebuilt;
  for (std::size_t b = 0; b < LogHistogram::num_buckets(); ++b) {
    rebuilt.AddBucketCount(b, h.bucket_count(b));
  }
  EXPECT_EQ(rebuilt, h);
  // A rebuilt copy merges exactly like the original.
  LogHistogram via_orig = h, via_rebuilt = rebuilt;
  LogHistogram extra;
  extra.Add(42);
  via_orig.Merge(extra);
  via_rebuilt.Merge(extra);
  EXPECT_EQ(via_orig, via_rebuilt);
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, CaptureSinkReceivesTaggedRecords) {
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  CaptureLogSink capture;
  LogSink* previous = SetLogSink(&capture);

  Log(LogLevel::kInfo, "untagged message");
  Log(LogLevel::kWarning, "engine", "tagged message");
  Logf(LogLevel::kInfo, "formatted %d", 42);
  Logfc(LogLevel::kError, "net", "frame %s", "bad");

  SetLogSink(previous);
  SetLogLevel(saved_level);

  const auto entries = capture.Entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].component, "");
  EXPECT_EQ(entries[0].message, "untagged message");
  EXPECT_EQ(entries[1].level, LogLevel::kWarning);
  EXPECT_EQ(entries[1].component, "engine");
  EXPECT_EQ(entries[2].message, "formatted 42");
  EXPECT_EQ(entries[3].component, "net");
  EXPECT_EQ(entries[3].message, "frame bad");
}

TEST(LoggingTest, SinkHonorsLevelFilter) {
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  CaptureLogSink capture;
  LogSink* previous = SetLogSink(&capture);

  Log(LogLevel::kInfo, "engine", "below the filter");
  Log(LogLevel::kError, "engine", "passes");

  SetLogSink(previous);
  SetLogLevel(saved_level);

  const auto entries = capture.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].message, "passes");
}

// ---------------------------------------------------------------- Time

TEST(TimeTest, FormatKnownTimestamp) {
  // 2017-03-21T00:00:00Z = 1490054400000 ms.
  EXPECT_EQ(FormatIso8601(1490054400000), "2017-03-21T00:00:00.000Z");
}

TEST(TimeTest, ParseFormatRoundTrip) {
  const TimestampMs cases[] = {0, 1490054400123, 1700000000999};
  for (TimestampMs ts : cases) {
    TimestampMs parsed = 0;
    ASSERT_TRUE(ParseIso8601(FormatIso8601(ts), &parsed));
    EXPECT_EQ(parsed, ts);
  }
}

TEST(TimeTest, ParseWithoutMillisOrZone) {
  TimestampMs parsed = 0;
  ASSERT_TRUE(ParseIso8601("2017-03-21T12:30:15", &parsed));
  EXPECT_EQ(parsed, 1490099415000);
}

TEST(TimeTest, ParseRejectsGarbage) {
  TimestampMs parsed = 0;
  EXPECT_FALSE(ParseIso8601("not a date", &parsed));
  EXPECT_FALSE(ParseIso8601("2017-13-01T00:00:00Z", &parsed));
  EXPECT_FALSE(ParseIso8601("2017-03-21T00:00:00Zjunk", &parsed));
}

TEST(TimeTest, MonotonicAdvances) {
  const std::int64_t a = MonotonicNanos();
  const std::int64_t b = MonotonicNanos();
  EXPECT_GE(b, a);
}

// ---------------------------------------------------------------- Pool

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 40 + 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZero) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, QueueWaitHistogramCountsTasks) {
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([] {}));
  }
  for (auto& f : futures) f.get();
  pool.ParallelFor(100, [](std::size_t) {});
  const LogHistogram wait = pool.QueueWaitNanos();
  // Every executed task contributes one queue-wait sample (ParallelFor
  // chunks count per chunk, so >= the 50 submits).
  EXPECT_GE(wait.count(), 50u);
  EXPECT_GE(wait.p50(), 0.0);
}

TEST(ThreadPoolTest, ManyTasks) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&sum] { sum += 1; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 200);
}

// A pool task that itself calls ParallelFor must not deadlock: the worker
// help-runs the queued chunks instead of blocking behind them. The
// single-worker pool is the hardest case — every chunk queues behind the
// caller.
TEST(ThreadPoolTest, NestedParallelForOnWorkerDoesNotDeadlock) {
  ThreadPool pool(1);
  std::atomic<int> hits{0};
  auto f = pool.Submit([&] {
    pool.ParallelFor(64, [&](std::size_t) { hits.fetch_add(1); });
  });
  f.get();
  EXPECT_EQ(hits.load(), 64);
}

TEST(ThreadPoolTest, DeeplyNestedParallelFor) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(4, [&](std::size_t) {
      pool.ParallelFor(8, [&](std::size_t) { hits.fetch_add(1); });
    });
  });
  EXPECT_EQ(hits.load(), 4 * 4 * 8);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](std::size_t i) {
                         ran.fetch_add(1);
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The call returned only after every chunk finished (otherwise later
  // chunks would have referenced a dead stack frame); the pool stays
  // usable.
  std::atomic<int> after{0};
  pool.ParallelFor(50, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50);
  EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPoolTest, ParallelForAllIterationsThrow) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(
                   40, [&](std::size_t) { throw std::runtime_error("each"); }),
               std::runtime_error);
  std::atomic<int> after{0};
  pool.ParallelFor(10, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPoolTest, ConcurrentParallelForsFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 6; ++t) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep) {
        pool.ParallelFor(32, [&](std::size_t) { hits.fetch_add(1); });
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(hits.load(), 6 * 20 * 32);
}

TEST(ThreadPoolTest, NestedParallelForWithExceptionInInner) {
  ThreadPool pool(2);
  std::atomic<int> outer_done{0};
  pool.ParallelFor(4, [&](std::size_t) {
    try {
      pool.ParallelFor(8, [&](std::size_t j) {
        if (j == 5) throw std::runtime_error("inner");
      });
    } catch (const std::runtime_error&) {
    }
    outer_done.fetch_add(1);
  });
  EXPECT_EQ(outer_done.load(), 4);
}

/// Parks the only worker of a one-thread pool on a gate, so queued tasks
/// can run only on a helping caller until Release().
class ParkedWorker {
 public:
  explicit ParkedWorker(ThreadPool* pool) {
    std::future<void> started = started_.get_future();
    parked_ = pool->Submit([this, gate = gate_.get_future()] {
      started_.set_value();
      gate.wait();
    });
    started.wait();
  }
  void Release() {
    gate_.set_value();
    parked_.get();
  }

 private:
  std::promise<void> started_;
  std::promise<void> gate_;
  std::future<void> parked_;
};

// HelpUntil is the pool's one help-while-wait loop (ParallelFor's join and
// the sharded runtime's epoch barrier).
TEST(ThreadPoolTest, HelpUntilRunsQueuedTasksUntilThePredicateHolds) {
  ThreadPool pool(1);
  ParkedWorker worker(&pool);
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int on_caller = 0;
  const std::thread::id caller = std::this_thread::get_id();
  constexpr int kTasks = 16;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      if (std::this_thread::get_id() == caller) ++on_caller;
      cv.notify_all();
    });
  }
  pool.HelpUntil(mu, cv, [&] { return done == kTasks / 2; });
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(done, kTasks / 2);  // stops as soon as the predicate holds
  }
  pool.HelpUntil(mu, cv, [&] { return done == kTasks; });
  worker.Release();
  EXPECT_EQ(on_caller, kTasks);
}

TEST(ThreadPoolTest, HelpUntilReturnsAtOnceWhenThePredicateHolds) {
  ThreadPool pool(1);
  ParkedWorker worker(&pool);
  std::atomic<int> ran{0};
  auto queued = pool.Submit([&] { ran.fetch_add(1); });
  std::mutex mu;
  std::condition_variable cv;
  pool.HelpUntil(mu, cv, [] { return true; });
  EXPECT_EQ(ran.load(), 0);  // the queued task was left to the pool
  worker.Release();
  queued.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, HelpUntilWakesOnNotify) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool flag = false;
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::lock_guard<std::mutex> lock(mu);
    flag = true;
    cv.notify_all();
  });
  // The queue is empty, so the caller blocks on cv until the setter runs.
  pool.HelpUntil(mu, cv, [&] { return flag; });
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(flag);
  }
  setter.join();
}

// ------------------------------------------------------------- Placement

TEST(ThreadPoolPlacementTest, PlanStartsAfterTheOwnCpuAndWraps) {
  EXPECT_EQ(PlanWorkerCpus({0, 1, 2, 3}, 2, 3), (std::vector<int>{3, 0, 1}));
  EXPECT_EQ(PlanWorkerCpus({0, 1, 2, 3}, 3, 2), (std::vector<int>{0, 1}));
  EXPECT_EQ(PlanWorkerCpus({0, 1, 2, 3}, 0, 3), (std::vector<int>{1, 2, 3}));
}

TEST(ThreadPoolPlacementTest, PlanWhenTheOwnCpuIsOutsideTheMask) {
  // Counting starts at the next allowed CPU above the own one.
  EXPECT_EQ(PlanWorkerCpus({1, 3, 5}, 4, 3), (std::vector<int>{5, 1, 3}));
  EXPECT_EQ(PlanWorkerCpus({1, 3, 5}, 0, 2), (std::vector<int>{1, 3}));
  EXPECT_EQ(PlanWorkerCpus({1, 3, 5}, 7, 2), (std::vector<int>{1, 3}));
  // An unknown own CPU (-1) counts from the lowest allowed one.
  EXPECT_EQ(PlanWorkerCpus({1, 3, 5}, -1, 2), (std::vector<int>{1, 3}));
}

TEST(ThreadPoolPlacementTest, PlanOnAOneCpuMaskPutsEveryWorkerThere) {
  EXPECT_EQ(PlanWorkerCpus({2}, 2, 3), (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(PlanWorkerCpus({2}, 0, 2), (std::vector<int>{2, 2}));
}

TEST(ThreadPoolPlacementTest, PlanWithMoreWorkersThanCpusCycles) {
  EXPECT_EQ(PlanWorkerCpus({0, 1, 2, 3}, 0, 6),
            (std::vector<int>{1, 2, 3, 0, 1, 2}));
  EXPECT_EQ(PlanWorkerCpus({4, 6}, 4, 5), (std::vector<int>{6, 4, 6, 4, 6}));
}

TEST(ThreadPoolPlacementTest, PlanOnAnEmptyMaskLeavesWorkersUnplaced) {
  EXPECT_EQ(PlanWorkerCpus({}, 0, 3), (std::vector<int>{-1, -1, -1}));
  EXPECT_TRUE(PlanWorkerCpus({0, 1}, 0, 0).empty());
}

#if defined(__linux__)
// Two tasks that can only finish together run on two workers at once;
// each records its CPU once both have arrived. Placed workers start on
// distinct CPUs, so the two must differ. Where the kernel does not
// balance load, unplaced workers would both sit on the constructing
// thread's CPU and report the same one.
TEST(ThreadPoolPlacementTest, TwoConcurrentTasksRunOnDistinctCpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  if (CPU_COUNT(&mask) < 3) {
    GTEST_SKIP() << "the affinity mask allows fewer than 3 CPUs";
  }
  ThreadPool pool(2);
  ASSERT_EQ(pool.WorkerCpus().size(), 2u);
  for (int cpu : pool.WorkerCpus()) {
    EXPECT_TRUE(cpu == -1 || CPU_ISSET(cpu, &mask)) << cpu;
  }
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::vector<int> cpus;
  auto task = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived == 2; });
    cpus.push_back(sched_getcpu());
  };
  auto a = pool.Submit(task);
  auto b = pool.Submit(task);
  a.get();
  b.get();
  ASSERT_EQ(cpus.size(), 2u);
  EXPECT_NE(cpus[0], cpus[1]);
  if (pool.WorkerCpus()[0] != -1 && pool.WorkerCpus()[1] != -1) {
    EXPECT_NE(pool.WorkerCpus()[0], pool.WorkerCpus()[1]);
  }
}
#endif

}  // namespace
}  // namespace datacron
