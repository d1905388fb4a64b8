// Byte-identity of the sharded engine runtime: IngestBatch at any shard
// count must reproduce the serial Ingest loop exactly — events, triples,
// episodes, trajectories and dictionary ids. Also unit-covers the
// EpochDriver loop (with a fake executor), the ShardedRuntime scheduling
// invariants and OperatorMetrics::Merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "datacron/engine.h"
#include "obs/metrics.h"
#include "sources/adsb_generator.h"
#include "sources/ais_generator.h"
#include "stream/epoch.h"
#include "stream/operator.h"
#include "stream/sharded_runtime.h"

namespace datacron {
namespace {

// ---------------------------------------------------------------------
// ShardedRuntime units
// ---------------------------------------------------------------------

struct SlotRecord {
  std::size_t shard = 0;
  std::size_t seq = 0;  // per-shard sequence number at processing time
};

TEST(ShardedRuntimeTest, GlobalStageSeesInputOrderAndKeyedRoutingHolds) {
  constexpr std::size_t kShards = 5;
  std::vector<int> input(1000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int>(i);
  }

  ShardedRuntime<int, SlotRecord> runtime(kShards, EpochWindow(16, 2));

  // Keyed state: one counter per shard, touched only by its own shard.
  std::vector<std::size_t> shard_seq(kShards, 0);
  std::vector<int> consumed;
  std::vector<SlotRecord> records(input.size());

  ThreadPool pool(4);
  runtime.Run(
      std::span<const int>(input), &pool,
      [](const int& v) { return static_cast<std::uint64_t>(v) % 7; },
      [&](std::size_t shard, const int& v, SlotRecord* slot, NoShardArena*) {
        slot->shard = shard;
        slot->seq = shard_seq[shard]++;
        records[static_cast<std::size_t>(v)] = *slot;
      },
      [&](std::span<const int> items, std::span<SlotRecord> slots,
          std::span<NoShardArena>) {
        (void)slots;
        consumed.insert(consumed.end(), items.begin(), items.end());
      });

  // The global stage consumed every item in input order.
  ASSERT_EQ(consumed, input);
  // Every item ran on the shard its key selects, and each shard saw its
  // items in input order (FIFO mailboxes, serialized drains).
  std::vector<std::size_t> expect_seq(kShards, 0);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const std::size_t shard = (i % 7) % kShards;
    EXPECT_EQ(records[i].shard, shard);
    EXPECT_EQ(records[i].seq, expect_seq[shard]++);
  }
}

TEST(ShardedRuntimeTest, SerialFallbackStillRoutesByKey) {
  ShardedRuntime<int, std::size_t> runtime(4, EpochWindow(8, 4));

  std::vector<int> input = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  std::vector<std::size_t> shards_seen;
  runtime.Run(
      std::span<const int>(input), /*pool=*/nullptr,
      [](const int& v) { return static_cast<std::uint64_t>(v); },
      [&](std::size_t shard, const int& v, std::size_t* slot, NoShardArena*) {
        *slot = shard;
        EXPECT_EQ(shard, static_cast<std::size_t>(v) % 4);
        shards_seen.push_back(shard);
      },
      [](std::span<const int>, std::span<std::size_t>,
         std::span<NoShardArena>) {});
  EXPECT_EQ(shards_seen.size(), input.size());
}

TEST(ShardedRuntimeTest, KeyedExceptionPropagatesWithoutHanging) {
  ShardedRuntime<int, int> runtime(3, EpochWindow(4, 4));

  std::vector<int> input(64);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int>(i);
  }
  ThreadPool pool(2);
  EXPECT_THROW(
      runtime.Run(
          std::span<const int>(input), &pool,
          [](const int& v) { return static_cast<std::uint64_t>(v); },
          [](std::size_t, const int& v, int* slot, NoShardArena*) {
            if (v == 17) throw std::runtime_error("keyed stage failure");
            *slot = v;
          },
          [](std::span<const int>, std::span<int>, std::span<NoShardArena>) {
          }),
      std::runtime_error);
}

TEST(ShardedRuntimeTest, ArenasAccumulatePerShardPerEpoch) {
  struct Watermark {
    std::size_t shard = 0;
    std::size_t end = 0;  // arena size after this item ran
  };
  ShardedRuntime<int, Watermark, std::vector<int>> runtime(3,
                                                          EpochWindow(10, 4));

  std::vector<int> input(100);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int>(i);
  }
  ThreadPool pool(4);
  std::vector<int> replayed;
  runtime.Run(
      std::span<const int>(input), &pool,
      [](const int& v) { return static_cast<std::uint64_t>(v); },
      [](std::size_t shard, const int& v, Watermark* slot,
         std::vector<int>* arena) {
        arena->push_back(v);
        slot->shard = shard;
        slot->end = arena->size();
      },
      [&](std::span<const int> items, std::span<Watermark> slots,
          std::span<std::vector<int>> arenas) {
        // Fresh arenas every epoch, one per shard; per-item watermarks
        // slice them back into input order.
        ASSERT_EQ(arenas.size(), 3u);
        std::size_t total = 0;
        for (const std::vector<int>& a : arenas) total += a.size();
        EXPECT_EQ(total, items.size());
        std::vector<std::size_t> cursor(arenas.size(), 0);
        for (std::size_t i = 0; i < items.size(); ++i) {
          const Watermark& wm = slots[i];
          ASSERT_EQ(wm.end, cursor[wm.shard] + 1);
          replayed.push_back(arenas[wm.shard][cursor[wm.shard]]);
          cursor[wm.shard] = wm.end;
        }
      });
  EXPECT_EQ(replayed, input);
}

// ---------------------------------------------------------------------
// EpochDriver units (fake executor)
// ---------------------------------------------------------------------

/// A scripted executor: records every call, counts epochs dispatched but
/// not yet retired, and fails on request. `probe_every` > 0 makes the
/// non-blocking probe pass for ids divisible by it (the mailbox's early
/// retire); 0 means the probe never passes (the transport).
struct FakeExecutor {
  struct Payload {
    bool delivered = false;
    bool awaited = false;
  };
  using Epoch = DrivenEpoch<int, Payload>;

  Status Deliver(Epoch& e) {
    if (quiesced) ++calls_after_quiesce;
    delivered.push_back(e.id);
    e.payload.delivered = true;
    max_in_flight_seen = std::max(max_in_flight_seen, ++in_flight);
    if (e.id == throw_deliver_at) throw std::runtime_error("deliver threw");
    if (e.id == fail_deliver_at) return Status::Internal("deliver failed");
    return Status::OK();
  }
  bool Passed(const Epoch& e) {
    if (quiesced) ++calls_after_quiesce;
    return probe_every > 0 && e.id % probe_every == 0;
  }
  Status Await(Epoch& e) {
    if (quiesced) ++calls_after_quiesce;
    e.payload.awaited = true;
    if (e.id == fail_await_at) return Status::Internal("await failed");
    return Status::OK();
  }
  void Quiesce() { quiesced = true; }

  std::int64_t probe_every = 0;
  std::int64_t fail_deliver_at = -1;
  std::int64_t throw_deliver_at = -1;
  std::int64_t fail_await_at = -1;

  std::vector<std::int64_t> delivered;
  std::size_t in_flight = 0;
  std::size_t max_in_flight_seen = 0;
  bool quiesced = false;
  std::size_t calls_after_quiesce = 0;
};

/// What the global stage saw, epoch by epoch.
struct GlobalLog {
  std::vector<std::int64_t> ids;
  std::vector<int> items;
  std::size_t calls_after_quiesce = 0;
};

Status RunDriver(EpochDriver* driver, std::span<const int> input,
                 FakeExecutor* exec, GlobalLog* log,
                 std::int64_t fail_global_at = -1) {
  return driver->Run(
      input, 3, [](const int& v) { return static_cast<std::uint64_t>(v); },
      *exec, [&](FakeExecutor::Epoch& e) {
        if (exec->quiesced) ++log->calls_after_quiesce;
        // The barrier released before the merge: delivered, and awaited
        // unless the probe passed.
        EXPECT_TRUE(e.payload.delivered);
        EXPECT_TRUE(e.payload.awaited || exec->probe_every > 0);
        --exec->in_flight;
        log->ids.push_back(e.id);
        log->items.insert(log->items.end(), e.items.begin(), e.items.end());
        std::size_t routed = 0;
        for (std::size_t p = 0; p < e.by_part.size(); ++p) {
          for (std::uint32_t idx : e.by_part[p]) {
            EXPECT_EQ(static_cast<std::size_t>(e.items[idx]) % 3, p);
            ++routed;
          }
        }
        EXPECT_EQ(routed, e.items.size());
        if (e.id == fail_global_at) return Status::Internal("global failed");
        return Status::OK();
      });
}

std::vector<int> Iota(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

TEST(EpochDriverTest, BoundsInFlightAndRetiresEveryEpochOnceInOrder) {
  const std::vector<int> input = Iota(10);
  for (const std::size_t in_flight : {1u, 2u, 4u}) {
    for (const std::size_t epoch_size : {1u, 3u, 4u, 10u, 11u}) {
      for (const std::int64_t probe_every : {0, 2, 1}) {
        SCOPED_TRACE(testing::Message()
                     << "in_flight " << in_flight << " epoch " << epoch_size
                     << " probe " << probe_every);
        EpochDriver driver(EpochWindow(epoch_size, in_flight));
        FakeExecutor exec;
        exec.probe_every = probe_every;
        GlobalLog log;
        ASSERT_TRUE(RunDriver(&driver, input, &exec, &log).ok());
        const std::size_t epochs = (input.size() + epoch_size - 1) /
                                   epoch_size;
        EXPECT_LE(exec.max_in_flight_seen, in_flight);
        EXPECT_EQ(exec.in_flight, 0u);
        // Every epoch once, in input order, covering the input exactly.
        std::vector<std::int64_t> ids(epochs);
        for (std::size_t i = 0; i < epochs; ++i) {
          ids[i] = static_cast<std::int64_t>(i);
        }
        EXPECT_EQ(exec.delivered, ids);
        EXPECT_EQ(log.ids, ids);
        EXPECT_EQ(log.items, input);
        EXPECT_TRUE(exec.quiesced);
        EXPECT_EQ(exec.calls_after_quiesce, 0u);
      }
    }
  }
}

TEST(EpochDriverTest, TransportLikeExecutorFillsTheWindowBeforeRetiring) {
  // A probe that never passes retires only when the window is full: the
  // in-flight bound is reached exactly, never exceeded.
  const std::vector<int> input = Iota(40);
  EpochDriver driver(EpochWindow(4, 3));
  FakeExecutor exec;
  GlobalLog log;
  ASSERT_TRUE(RunDriver(&driver, input, &exec, &log).ok());
  EXPECT_EQ(exec.max_in_flight_seen, 3u);
  EXPECT_EQ(log.items, input);
}

TEST(EpochDriverTest, ZeroWindowClampsToOne) {
  const EpochWindow window(0, 0);
  EXPECT_EQ(window.epoch_size, 1u);
  EXPECT_EQ(window.max_in_flight, 1u);
  EXPECT_EQ(window.items(), 1u);
  EXPECT_EQ(EpochWindow(128, 4).items(), 512u);
}

TEST(EpochDriverTest, ConsecutiveRunsContinueTheEpochIds) {
  const std::vector<int> input = Iota(10);
  EpochDriver driver(EpochWindow(4, 2));
  FakeExecutor exec;
  GlobalLog log;
  ASSERT_TRUE(RunDriver(&driver, input, &exec, &log).ok());
  ASSERT_TRUE(RunDriver(&driver, input, &exec, &log).ok());
  const std::vector<std::int64_t> ids = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(log.ids, ids);
  EXPECT_EQ(exec.delivered, ids);
}

TEST(EpochDriverTest, FailureStopsDispatchAndReturnsAfterQuiesce) {
  const std::vector<int> input = Iota(20);
  struct Case {
    const char* name;
    std::int64_t fail_deliver_at;
    std::int64_t fail_await_at;
    std::int64_t fail_global_at;
    std::int64_t last_merged;  // highest epoch id the global stage saw
  };
  // Epochs of 2 items, window 2: epoch k is dispatched after k-2 retired.
  const Case cases[] = {
      {"deliver", 4, -1, -1, 2},
      {"await", -1, 3, -1, 2},
      {"global", -1, -1, 3, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EpochDriver driver(EpochWindow(2, 2));
    FakeExecutor exec;
    exec.fail_deliver_at = c.fail_deliver_at;
    exec.fail_await_at = c.fail_await_at;
    GlobalLog log;
    const Status s = RunDriver(&driver, input, &exec, &log, c.fail_global_at);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find(c.name), std::string::npos) << s.ToString();
    EXPECT_TRUE(exec.quiesced);
    EXPECT_EQ(exec.calls_after_quiesce, 0u);
    EXPECT_EQ(log.calls_after_quiesce, 0u);
    ASSERT_FALSE(log.ids.empty());
    EXPECT_EQ(log.ids.back(), c.last_merged);
    // Nothing was dispatched past the window the failure was found in.
    EXPECT_LE(exec.delivered.back(), c.last_merged + 2);
    EXPECT_LE(exec.max_in_flight_seen, 2u);
  }
}

TEST(EpochDriverTest, ExecutorExceptionIsRethrownAfterQuiesce) {
  const std::vector<int> input = Iota(20);
  EpochDriver driver(EpochWindow(2, 2));
  FakeExecutor exec;
  exec.throw_deliver_at = 3;
  GlobalLog log;
  bool quiesced_before_throw = false;
  try {
    RunDriver(&driver, input, &exec, &log);
  } catch (const std::runtime_error&) {
    quiesced_before_throw = exec.quiesced;
  }
  EXPECT_TRUE(quiesced_before_throw);
  EXPECT_EQ(exec.delivered.back(), 3);
  EXPECT_EQ(log.ids.back(), 1);
  EXPECT_EQ(exec.calls_after_quiesce, 0u);
}

TEST(ShardedRuntimeTest, GlobalStageExceptionStopsAndJoinsDrains) {
  // The global stage throws at epoch 10 (items 30..32) while later epochs
  // sit in the mailboxes. Every drain must join before the exception
  // leaves Run (TSan and ASan would flag a drain touching a freed epoch),
  // and the epochs still queued must pass through unprocessed. Keyed calls
  // past epoch 10 on a pool worker hold their drain until the global stage
  // has thrown, so each of the 4 workers is inside at most one such call
  // when the stop lands; a keyed call past epoch 10 that starts later is a
  // failure. The driver helps drain while it waits at the barrier; a call
  // it runs cannot hold (only the driver can throw), and it runs before
  // the throw by construction.
  ShardedRuntime<int, int> runtime(4, EpochWindow(3, 4));
  const std::vector<int> input = Iota(200);
  constexpr std::chrono::milliseconds kHold(100);
  const std::thread::id driver = std::this_thread::get_id();
  std::atomic<bool> thrown{false};
  std::atomic<int> upto_failing{0};
  std::atomic<int> past_failing{0};
  std::atomic<int> driver_after_throw{0};
  ThreadPool pool(4);  // one worker per shard: a held drain blocks no other
  EXPECT_THROW(
      runtime.Run(
          std::span<const int>(input), &pool,
          [](const int& v) { return static_cast<std::uint64_t>(v); },
          [&](std::size_t, const int& v, int* slot, NoShardArena*) {
            *slot = v;
            if (v < 33) {
              // A slow epoch 10 lets the driver fill the window (11..13).
              if (v == 32) std::this_thread::sleep_for(kHold / 2);
              upto_failing.fetch_add(1);
              return;
            }
            if (std::this_thread::get_id() == driver) {
              if (thrown.load()) driver_after_throw.fetch_add(1);
              return;
            }
            past_failing.fetch_add(1);
            while (!thrown.load()) std::this_thread::yield();
            // Give the driver time to reach Quiesce after the throw.
            std::this_thread::sleep_for(kHold);
          },
          [&](std::span<const int> items, std::span<int>,
              std::span<NoShardArena>) {
            if (items.front() < 30) return;
            thrown.store(true);
            throw std::runtime_error("global");
          }),
      std::runtime_error);
  EXPECT_EQ(upto_failing.load(), 33);
  EXPECT_LE(past_failing.load(), 4);
  EXPECT_EQ(driver_after_throw.load(), 0);
}

/// Waits for a task on a pool whose only worker may be deadlocked. Such a
/// pool cannot even be destroyed, so a timeout aborts the test binary.
template <typename T>
T GetOrAbort(std::future<T>& f) {
  if (f.wait_for(std::chrono::minutes(5)) != std::future_status::ready) {
    std::fprintf(stderr, "pool task did not finish: deadlock\n");
    std::abort();
  }
  return f.get();
}

TEST(ShardedRuntimeTest, KeyedFailureWithTheDriverAsOnlyDrainerPropagates) {
  // Run is called from the only worker of the pool, so every drain task
  // queues behind the driver: the driver drains, records the failure,
  // helps the remaining chains pass through at Quiesce, and rethrows.
  ShardedRuntime<int, int> runtime(4, EpochWindow(4, 4));
  const std::vector<int> input = Iota(200);
  ThreadPool pool(1);
  std::atomic<int> past_failure{0};
  auto nested = pool.Submit([&] {
    runtime.Run(
        std::span<const int>(input), &pool,
        [](const int& v) { return static_cast<std::uint64_t>(v); },
        [&](std::size_t, const int& v, int* slot, NoShardArena*) {
          if (v == 37) throw std::runtime_error("keyed stage failure");
          if (v > 37) past_failure.fetch_add(1);
          *slot = v;
        },
        [](std::span<const int> items, std::span<int>,
           std::span<NoShardArena>) {
          // The failing epoch (36..39) never reaches the global stage.
          EXPECT_LT(items.front(), 36);
        });
  });
  EXPECT_THROW(GetOrAbort(nested), std::runtime_error);
  // Shards other than 37's may have drained a few later items before the
  // failure landed, but the window bounds them (epochs 9..12 at most).
  EXPECT_LT(past_failure.load(), 16);
  auto after = pool.Submit([] { return 7; });
  EXPECT_EQ(GetOrAbort(after), 7);
}

TEST(ShardedRuntimeTest, EachShardHasOneDrainerAndSeesItsEpochsInOrder) {
  // Drain chains re-queue behind the other shards' older epochs, and the
  // driver runs queued drains while it waits; neither may put two
  // drainers on one shard or reorder a shard's epochs.
  struct FirstCall {
    bool seen = false;
  };
  const std::vector<int> input = Iota(600);
  obs::Counter* driver_drains =
      obs::MetricsRegistry::Global().counter("shard.driver_drains");
  const std::uint64_t driver_drains0 = driver_drains->Value();
  const std::thread::id driver = std::this_thread::get_id();
  std::size_t mailbox_calls_on_driver = 0;
  for (const std::size_t shards : {1u, 3u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const EpochWindow window : {EpochWindow(3, 4), EpochWindow(16, 2)}) {
        SCOPED_TRACE(StrFormat("%zu shards, %zu threads, epoch %zu x %zu",
                               shards, threads, window.epoch_size,
                               window.max_in_flight));
        ShardedRuntime<int, int, FirstCall> runtime(shards, window);
        std::vector<std::atomic<bool>> in_flight(shards);
        // Written only by the shard's current drainer.
        std::vector<std::int64_t> last_epoch(shards, -1);
        std::vector<int> last_item(shards, -1);
        std::atomic<int> overlaps{0};
        std::atomic<int> out_of_order{0};
        std::atomic<std::size_t> on_driver{0};
        ThreadPool pool(threads);
        runtime.Run(
            std::span<const int>(input), &pool,
            [](const int& v) {
              return (static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ull) >>
                     32;
            },
            [&](std::size_t shard, const int& v, int* slot, FirstCall* arena) {
              if (in_flight[shard].exchange(true)) overlaps.fetch_add(1);
              const auto epoch =
                  static_cast<std::int64_t>(v) /
                  static_cast<std::int64_t>(window.epoch_size);
              if (!arena->seen) {
                arena->seen = true;
                if (epoch <= last_epoch[shard]) out_of_order.fetch_add(1);
                last_epoch[shard] = epoch;
              }
              if (v <= last_item[shard]) out_of_order.fetch_add(1);
              last_item[shard] = v;
              if (std::this_thread::get_id() == driver) on_driver.fetch_add(1);
              // Stay in flight long enough for an overlap to show.
              const std::int64_t until = MonotonicNanos() + 2000;
              while (MonotonicNanos() < until) {
              }
              *slot = v;
              in_flight[shard].store(false);
            },
            [](std::span<const int>, std::span<int>,
               std::span<FirstCall>) {});
        EXPECT_EQ(overlaps.load(), 0);
        EXPECT_EQ(out_of_order.load(), 0);
        if (shards > 1) mailbox_calls_on_driver += on_driver.load();
      }
    }
  }
  // The waiting driver drained shard-epochs itself, and the registry
  // counted them.
  EXPECT_GT(mailbox_calls_on_driver, 0u);
  EXPECT_GT(driver_drains->Value(), driver_drains0);
}

// ---------------------------------------------------------------------
// Engine byte-identity
// ---------------------------------------------------------------------

DatacronEngine::Config ShardConfig(std::size_t num_shards,
                                   std::size_t epoch_size) {
  DatacronEngine::Config cfg;
  cfg.areas.push_back(NamedArea{
      "port_alpha", Polygon::Rectangle(BoundingBox::Of(36, 24, 36.5, 24.5))});
  cfg.sectors.push_back(CapacityMonitor::Sector{
      "aegean", Polygon::Rectangle(BoundingBox::Of(35.0, 23.0, 39.0, 27.0)),
      5});
  cfg.hotspot_window = 10 * kMinute;
  cfg.hotspot.zscore_threshold = 2.0;
  cfg.gap.gap_threshold = 5 * kMinute;
  cfg.synopses.gap_threshold = 5 * kMinute;
  cfg.num_shards = num_shards;
  cfg.epoch_size = epoch_size;
  return cfg;
}

/// Mixed AIS + ADS-B replay merged in arrival order, with an injected
/// per-entity silence so gap events and gap critical points exercise the
/// shard continuation state (including across epoch boundaries).
std::vector<PositionReport> MixedStream() {
  AisGeneratorConfig fleet;
  fleet.num_vessels = 12;
  fleet.duration = 40 * kMinute;
  ObservationConfig obs;
  obs.fixed_interval_ms = 15 * kSecond;
  std::vector<PositionReport> ais = ObserveFleet(GenerateAisFleet(fleet), obs);
  // One vessel's id is 2^30 or more, so its position nodes are dictionary
  // terms while every other node id is inline: both id spaces mix.
  const EntityId wide = ais.back().entity_id;
  for (PositionReport& r : ais) {
    if (r.entity_id == wide) r.entity_id |= EntityId{1} << 30;
  }

  AdsbGeneratorConfig air;
  air.region = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);
  air.num_airports = 4;
  air.num_flights = 6;
  air.duration = 40 * kMinute;
  air.departure_window = 10 * kMinute;
  std::vector<PositionReport> adsb;
  ObservationConfig air_obs;
  air_obs.fixed_interval_ms = 10 * kSecond;
  adsb = ObserveFleet(GenerateAdsbTraffic(air), air_obs);

  std::vector<PositionReport> merged;
  merged.reserve(ais.size() + adsb.size());
  merged.insert(merged.end(), ais.begin(), ais.end());
  merged.insert(merged.end(), adsb.begin(), adsb.end());
  std::sort(merged.begin(), merged.end(), ReportTimeOrder());

  // Silence one vessel for 20 minutes mid-stream: drop its reports in
  // the window so the detector sees a communication gap on reappearance.
  const EntityId silenced = merged.front().entity_id;
  const TimestampMs t0 = merged.front().timestamp + 10 * kMinute;
  const TimestampMs t1 = t0 + 20 * kMinute;
  std::erase_if(merged, [&](const PositionReport& r) {
    return r.entity_id == silenced && r.timestamp >= t0 && r.timestamp < t1;
  });
  return merged;
}

struct EngineRun {
  std::vector<Event> events;
  std::vector<Triple> triples;
  std::vector<Episode> episodes;
  std::size_t critical_points = 0;
  std::size_t reports = 0;
  std::size_t dict_size = 0;
  std::size_t entity_count = 0;
  std::size_t total_points = 0;
};

EngineRun Snapshot(DatacronEngine* engine, std::vector<Event> events) {
  EngineRun run;
  run.events = std::move(events);
  run.triples = engine->triples();
  run.episodes = engine->episodes();
  run.critical_points = engine->critical_points();
  run.reports = engine->reports_ingested();
  run.dict_size = engine->dictionary()->size();
  run.entity_count = engine->trajectories().EntityCount();
  run.total_points = engine->trajectories().TotalPoints();
  return run;
}

EngineRun RunSerial(const std::vector<PositionReport>& stream,
                    bool rdfize_all = false) {
  DatacronEngine::Config cfg = ShardConfig(1, 1024);
  cfg.rdfize_all_reports = rdfize_all;
  DatacronEngine engine(cfg);
  std::vector<Event> events;
  for (const PositionReport& r : stream) {
    const auto evs = engine.Ingest(r);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  return Snapshot(&engine, std::move(events));
}

EngineRun RunSharded(const std::vector<PositionReport>& stream,
                     std::size_t shards, std::size_t epoch_size,
                     ThreadPool* pool, bool rdfize_all = false) {
  DatacronEngine::Config cfg = ShardConfig(shards, epoch_size);
  cfg.rdfize_all_reports = rdfize_all;
  DatacronEngine engine(cfg);
  std::vector<Event> events = engine.IngestBatch(stream, pool);
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  return Snapshot(&engine, std::move(events));
}

void ExpectIdentical(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.reports, b.reports);
  EXPECT_EQ(a.critical_points, b.critical_points);
  EXPECT_EQ(a.dict_size, b.dict_size);
  EXPECT_EQ(a.entity_count, b.entity_count);
  EXPECT_EQ(a.total_points, b.total_points);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_TRUE(a.events == b.events);
  ASSERT_EQ(a.triples.size(), b.triples.size());
  EXPECT_TRUE(a.triples == b.triples);
  ASSERT_EQ(a.episodes.size(), b.episodes.size());
  EXPECT_TRUE(a.episodes == b.episodes);
}

TEST(EngineShardTest, ByteIdenticalAcrossShardCounts) {
  const auto stream = MixedStream();
  ASSERT_GT(stream.size(), 1000u);
  const EngineRun serial = RunSerial(stream);
  ASSERT_FALSE(serial.events.empty());
  ASSERT_FALSE(serial.triples.empty());
  ASSERT_FALSE(serial.episodes.empty());
  // The injected silence produced gap events through the sharded state.
  bool has_gap = false;
  for (const Event& e : serial.events) {
    if (e.kind == EventKind::kGap) has_gap = true;
  }
  EXPECT_TRUE(has_gap);

  ThreadPool pool(4);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(shards);
    const EngineRun run = RunSharded(stream, shards, 128, &pool);
    ExpectIdentical(serial, run);
  }
}

TEST(EngineShardTest, PointsRepeatingATimestampShareANodeOnEveryPath) {
  // Each vessel reports once, falls silent past the gap threshold and
  // reports once more. The detector emits TrajectoryStart, then GapStart
  // with the pre-gap report, for the first report, and GapEnd, then (at
  // Finish) TrajectoryEnd, for the second: two nodes, one link. One
  // vessel's id is 2^30 or more, so its nodes are dictionary terms.
  constexpr EntityId kVessel = 240000001;
  constexpr EntityId kWide = (EntityId{1} << 30) | 7;
  std::vector<PositionReport> stream;
  for (const TimestampMs t : {TimestampMs{1490000000000},
                              TimestampMs{1490000000000} + 30 * kMinute}) {
    for (const EntityId e : {kVessel, kWide}) {
      PositionReport r;
      r.entity_id = e;
      r.timestamp = t;
      r.position = {36.5, t == 1490000000000 ? 24.5 : 24.6, 0};
      r.speed_mps = 5.0;
      r.course_deg = 90.0;
      stream.push_back(r);
    }
  }
  const EngineRun serial = RunSerial(stream);
  ThreadPool pool(2);
  for (const std::size_t epoch_size : {1u, 3u}) {
    SCOPED_TRACE(epoch_size);
    ExpectIdentical(serial, RunSharded(stream, 4, epoch_size, &pool));
  }

  DatacronEngine engine(ShardConfig(1, 1024));
  for (const PositionReport& r : stream) engine.Ingest(r);
  engine.Finish();
  const TermDictionary& dict = *engine.dictionary();
  const Vocab& vocab = engine.vocab();
  const auto kind = [&](CriticalPointType type) {
    return dict.Find(CriticalPointTypeName(type), TermKind::kLiteralString);
  };
  for (const EntityId e : {kVessel, kWide}) {
    SCOPED_TRACE(e);
    const TermId n0 = dict.Find(PositionNodeIri(e, 0));
    const TermId n1 = dict.Find(PositionNodeIri(e, 1));
    ASSERT_NE(n0, kInvalidTermId);
    ASSERT_NE(n1, kInvalidTermId);
    EXPECT_EQ(IsInlineTerm(n0), e == kVessel);
    const TermId entity = dict.Find(EntityIri(e));
    std::set<TermId> nodes;
    std::set<TermId> kinds0;
    std::set<TermId> kinds1;
    std::vector<std::pair<TermId, TermId>> links;
    for (const Triple& t : engine.triples()) {
      if (t.p == vocab.p_of_entity && t.o == entity &&
          dict.Kind(t.s) == TermKind::kIri &&
          StartsWith(dict.Text(t.s).value(), "node:")) {
        nodes.insert(t.s);
      }
      if (t.p == vocab.p_node_kind && t.s == n0) kinds0.insert(t.o);
      if (t.p == vocab.p_node_kind && t.s == n1) kinds1.insert(t.o);
      if (t.p == vocab.p_next_node && (t.s == n0 || t.s == n1)) {
        links.emplace_back(t.s, t.o);
      }
    }
    EXPECT_EQ(kinds0, (std::set<TermId>{kind(CriticalPointType::kTrajectoryStart),
                                        kind(CriticalPointType::kGapStart)}));
    EXPECT_EQ(kinds1, (std::set<TermId>{kind(CriticalPointType::kGapEnd),
                                        kind(CriticalPointType::kTrajectoryEnd)}));
    EXPECT_EQ(nodes, (std::set<TermId>{n0, n1}));
    EXPECT_EQ(links, (std::vector<std::pair<TermId, TermId>>{{n0, n1}}));
  }
}

TEST(EngineShardTest, FinishClosesEveryOpenEpisodeAtAnyShardCount) {
  // Cut mid-voyage, the stream ends with every entity holding an open
  // episode and a pending trajectory-end point, so the end-of-stream
  // epoch has one slot per entity, each with a transformed point and a
  // completed episode.
  auto stream = MixedStream();
  stream.resize(stream.size() / 2);
  DatacronEngine engine(ShardConfig(1, 1024));
  std::vector<Event> events;
  for (const PositionReport& r : stream) {
    const auto evs = engine.Ingest(r);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  const std::size_t cps_before = engine.critical_points();
  const std::size_t episodes_before = engine.episodes().size();
  const std::size_t triples_before = engine.triples().size();
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());

  const std::size_t entities = engine.trajectories().EntityCount();
  ASSERT_GT(entities, 10u);
  EXPECT_EQ(engine.critical_points() - cps_before, entities);
  ASSERT_EQ(engine.episodes().size() - episodes_before, entities);
  EXPECT_GT(engine.triples().size(), triples_before);
  // End-of-stream output is per entity, in ascending entity order, and
  // each entity's trajectory-end point closed its open episode.
  std::map<EntityId, TimestampMs> last_report;
  for (const PositionReport& r : stream) last_report[r.entity_id] = r.timestamp;
  for (std::size_t i = episodes_before; i < engine.episodes().size(); ++i) {
    const Episode& e = engine.episodes()[i];
    EXPECT_EQ(e.end_time, last_report[e.entity]);
    if (i > episodes_before) {
      EXPECT_LT(engine.episodes()[i - 1].entity, e.entity);
    }
  }
  const EngineRun serial = Snapshot(&engine, std::move(events));

  ThreadPool pool(4);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(shards);
    ExpectIdentical(serial, RunSharded(stream, shards, 128, &pool));
  }
}

TEST(EngineShardTest, ByteIdenticalAtEpochBoundaryEdgeCases) {
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);
  ThreadPool pool(4);
  // Tiny epochs force gap/flush edge cases to straddle epoch barriers;
  // max-in-flight 4 keeps several epochs live at once.
  for (const std::size_t epoch_size : {1u, 32u}) {
    SCOPED_TRACE(epoch_size);
    const EngineRun run = RunSharded(stream, 4, epoch_size, &pool);
    ExpectIdentical(serial, run);
  }
}

TEST(EngineShardTest, ByteIdenticalWhenEpochExceedsBatch) {
  // One epoch swallows the whole stream: the coalesced per-epoch merge
  // runs exactly once and must still replay input order.
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);
  ThreadPool pool(4);
  const EngineRun run =
      RunSharded(stream, 4, stream.size() * 2, &pool);
  ExpectIdentical(serial, run);
}

TEST(EngineShardTest, ByteIdenticalWhenBatchesStraddleEpochFlushes) {
  // Feed IngestBatch in uneven chunks that never align with the epoch
  // size, so shard-epoch arenas are cut mid-entity and continuation
  // state (sequence links, gap detection) must survive the seams.
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);
  ThreadPool pool(4);
  DatacronEngine engine(ShardConfig(4, 128));
  std::vector<Event> events;
  const std::span<const PositionReport> all(stream);
  for (std::size_t pos = 0; pos < all.size(); pos += 777) {
    const auto evs =
        engine.IngestBatch(all.subspan(pos, std::min<std::size_t>(
                                                777, all.size() - pos)),
                           &pool);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  ExpectIdentical(serial, Snapshot(&engine, std::move(events)));
}

TEST(EngineShardTest, ByteIdenticalWhenRdfizingAllReports) {
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream, /*rdfize_all=*/true);
  ThreadPool pool(4);
  const EngineRun run =
      RunSharded(stream, 4, 128, &pool, /*rdfize_all=*/true);
  ExpectIdentical(serial, run);
}

TEST(EngineShardTest, IngestBatchInsideAOneWorkerPoolTaskMatchesSerial) {
  // The only worker drives the epochs, so every drain task queues behind
  // the driver; the driver's barrier wait drains them itself.
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);
  ThreadPool pool(1);
  auto nested = pool.Submit([&] { return RunSharded(stream, 4, 128, &pool); });
  ExpectIdentical(serial, GetOrAbort(nested));
}

TEST(EngineShardTest, NullPoolFallbackMatchesSerial) {
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);
  const EngineRun run = RunSharded(stream, 4, 128, /*pool=*/nullptr);
  ExpectIdentical(serial, run);
}

TEST(EngineShardTest, MixedIngestThenBatchMatchesSerial) {
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);

  DatacronEngine engine(ShardConfig(4, 128));
  ThreadPool pool(4);
  std::vector<Event> events;
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const auto evs = engine.Ingest(stream[i]);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  const auto batch_events = engine.IngestBatch(
      std::span<const PositionReport>(stream).subspan(half), &pool);
  events.insert(events.end(), batch_events.begin(), batch_events.end());
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  ExpectIdentical(serial, Snapshot(&engine, std::move(events)));
}

TEST(EngineShardTest, MetricsReportCoversAllDetectors) {
  DatacronEngine engine(ShardConfig(4, 128));
  ThreadPool pool(2);
  const auto stream = MixedStream();
  engine.IngestBatch(stream, &pool);
  const std::string report = engine.MetricsReport();
  for (const char* name :
       {"critical_point_detector", "area_event_detector",
        "loitering_detector", "gap_detector", "speed_anomaly_detector",
        "proximity_detector", "capacity_monitor", "hotspot_detector"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
  // The merged keyed rows account for every report exactly once.
  EXPECT_NE(report.find("cep-keyed"), std::string::npos);
  EXPECT_NE(report.find("cep-global"), std::string::npos);
}

}  // namespace
}  // namespace datacron
