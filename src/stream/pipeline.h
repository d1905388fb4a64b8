#ifndef DATACRON_STREAM_PIPELINE_H_
#define DATACRON_STREAM_PIPELINE_H_

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stream/operator.h"
#include "stream/queue.h"

namespace datacron {

/// Two-stage executions of an operator over a batch or a live queue.
///
/// The in-situ processing component runs operators either inline (lowest
/// latency, one thread walks the whole chain per tuple) or staged (each
/// operator on its own thread connected by bounded queues — the
/// backpressure model of distributed stream engines). Both are provided;
/// benchmarks compare them (E2).
namespace pipeline {

/// Runs `op` over all of `input` inline, returning all outputs including
/// flushed state.
template <typename In, typename Out>
std::vector<Out> RunBatch(Operator<In, Out>* op, const std::vector<In>& input) {
  std::vector<Out> out;
  for (const In& item : input) op->ProcessCounted(item, &out);
  op->Flush(&out);
  return out;
}

/// Chains two operators inline over a batch.
template <typename A, typename B, typename C>
std::vector<C> RunBatch2(Operator<A, B>* op1, Operator<B, C>* op2,
                         const std::vector<A>& input) {
  std::vector<B> mid;
  std::vector<C> out;
  for (const A& item : input) {
    mid.clear();
    op1->ProcessCounted(item, &mid);
    for (const B& m : mid) op2->ProcessCounted(m, &out);
  }
  mid.clear();
  op1->Flush(&mid);
  for (const B& m : mid) op2->ProcessCounted(m, &out);
  op2->Flush(&out);
  return out;
}

/// Stage thread: drains `in`, applies `op`, pushes to `outq`, closes `outq`
/// when done. Returns the thread; caller joins.
///
/// Metrics ownership: the stage thread mutates `op->metrics_` via
/// ProcessCounted, so the operator instance belongs to the stage until its
/// thread is joined — reading op->metrics() concurrently is a data race.
template <typename In, typename Out>
std::thread SpawnStage(Operator<In, Out>* op, BoundedQueue<In>* in,
                       BoundedQueue<Out>* outq) {
  return std::thread([op, in, outq] {
    std::vector<Out> buf;
    while (auto item = in->Pop()) {
      buf.clear();
      op->ProcessCounted(*item, &buf);
      for (Out& o : buf) outq->Push(std::move(o));
    }
    buf.clear();
    op->Flush(&buf);
    for (Out& o : buf) outq->Push(std::move(o));
    outq->Close();
  });
}

/// Runs op1 | op2 as two queue-connected threads over `input`; the caller's
/// thread feeds the source queue and collects the sink.
template <typename A, typename B, typename C>
std::vector<C> RunThreaded2(Operator<A, B>* op1, Operator<B, C>* op2,
                            const std::vector<A>& input,
                            std::size_t queue_capacity = 1024) {
  BoundedQueue<A> q0(queue_capacity);
  BoundedQueue<B> q1(queue_capacity);
  BoundedQueue<C> q2(queue_capacity);
  std::thread t1 = SpawnStage(op1, &q0, &q1);
  std::thread t2 = SpawnStage(op2, &q1, &q2);
  std::thread feeder([&] {
    for (const A& item : input) q0.Push(item);
    q0.Close();
  });
  std::vector<C> out;
  while (auto item = q2.Pop()) out.push_back(std::move(*item));
  feeder.join();
  t1.join();
  t2.join();
  return out;
}

}  // namespace pipeline
}  // namespace datacron

#endif  // DATACRON_STREAM_PIPELINE_H_
