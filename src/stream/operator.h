#ifndef DATACRON_STREAM_OPERATOR_H_
#define DATACRON_STREAM_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/time_utils.h"

namespace datacron {

/// Execution placement of a stateful streaming operator in the sharded
/// runtime (stream/sharded_runtime.h):
///
///  - kKeyed: all state is partitioned by entity, so the operator can be
///    instantiated once per shard and each instance only ever sees the
///    reports of the entities hashed to its shard — no locks, and output
///    identical to a single instance seeing the whole stream.
///  - kGlobal: the operator's state spans entities (pair proximity, sector
///    occupancy, grid density); it must be fed the full stream in input
///    order from the sequential epoch-merge stage.
enum class StageKind : std::uint8_t { kKeyed = 0, kGlobal };

/// Per-operator counters; each operator owns one and the pipeline runner
/// aggregates them. Latency is measured per Process() call in nanoseconds,
/// so latency_ns holds one sample per item in.
///
/// Anything that runs an operator from more than one thread — the sharded
/// runtime's per-shard keyed copies, staged pipelines — gives every thread
/// its own operator instance and folds the metrics on read (the engine
/// adds each shard's copy to its obs::MetricsSnapshot), instead of
/// mutating a shared counter across threads.
struct OperatorMetrics {
  std::string name;
  std::size_t items_in = 0;
  std::size_t items_out = 0;
  LogHistogram latency_ns;

  double SelectivityPct() const {
    return items_in == 0 ? 0.0 : 100.0 * items_out / items_in;
  }

  bool operator==(const OperatorMetrics&) const = default;
};

/// A streaming operator: consumes one In, emits zero or more Out. These are
/// the paper's "primitive operators applied directly on the data streams".
/// Stateless operators (map/filter) ignore Flush(); windowed/stateful
/// operators emit pending state there.
template <typename In, typename Out>
class Operator {
 public:
  explicit Operator(std::string name) { metrics_.name = std::move(name); }
  virtual ~Operator() = default;

  /// Processes one element, appending any outputs to `out`.
  virtual void Process(const In& item, std::vector<Out>* out) = 0;

  /// Called once at end-of-stream to release buffered state.
  virtual void Flush(std::vector<Out>* out) { (void)out; }

  /// Process() wrapper that maintains metrics. Pipelines call this.
  void ProcessCounted(const In& item, std::vector<Out>* out) {
    const std::size_t before = out->size();
    const std::int64_t t0 = MonotonicNanos();
    Process(item, out);
    metrics_.latency_ns.Add(static_cast<double>(MonotonicNanos() - t0));
    ++metrics_.items_in;
    metrics_.items_out += out->size() - before;
  }

  const OperatorMetrics& metrics() const { return metrics_; }

 protected:
  /// Metrics accounting for operators that consume whole batches outside
  /// ProcessCounted (the epoch-batched global CEP path): `items_in`
  /// elements in, `items_out` emitted, and the batch's cost split evenly
  /// into one latency sample per item. Every counter and the sample count
  /// then match a per-item run of the same stream, at any batch size.
  void CountBatch(std::size_t items_in, std::size_t items_out,
                  std::int64_t nanos) {
    if (items_in > 0) {
      metrics_.latency_ns.Add(
          static_cast<double>(nanos) / static_cast<double>(items_in),
          items_in);
    }
    metrics_.items_in += items_in;
    metrics_.items_out += items_out;
  }

  OperatorMetrics metrics_;
};

/// 1:1 transformation from a callable.
template <typename In, typename Out>
class MapOperator : public Operator<In, Out> {
 public:
  using Fn = std::function<Out(const In&)>;
  MapOperator(std::string name, Fn fn)
      : Operator<In, Out>(std::move(name)), fn_(std::move(fn)) {}

  void Process(const In& item, std::vector<Out>* out) override {
    out->push_back(fn_(item));
  }

 private:
  Fn fn_;
};

/// Keeps elements for which the predicate holds.
template <typename T>
class FilterOperator : public Operator<T, T> {
 public:
  using Pred = std::function<bool(const T&)>;
  FilterOperator(std::string name, Pred pred)
      : Operator<T, T>(std::move(name)), pred_(std::move(pred)) {}

  void Process(const T& item, std::vector<T>* out) override {
    if (pred_(item)) out->push_back(item);
  }

 private:
  Pred pred_;
};

/// 1:N transformation from a callable that appends to a vector.
template <typename In, typename Out>
class FlatMapOperator : public Operator<In, Out> {
 public:
  using Fn = std::function<void(const In&, std::vector<Out>*)>;
  FlatMapOperator(std::string name, Fn fn)
      : Operator<In, Out>(std::move(name)), fn_(std::move(fn)) {}

  void Process(const In& item, std::vector<Out>* out) override {
    fn_(item, out);
  }

 private:
  Fn fn_;
};

}  // namespace datacron

#endif  // DATACRON_STREAM_OPERATOR_H_
