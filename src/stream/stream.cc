// The stream module is mostly header-only templates; this translation
// unit holds the few non-template symbols and syntax-checks the headers
// during library builds.
#include "stream/admission.h"
#include "stream/epoch.h"
#include "stream/operator.h"
#include "stream/pipeline.h"
#include "stream/queue.h"
#include "stream/window.h"

namespace datacron {

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kBlock:
      return "block";
    case AdmissionPolicy::kDropOldest:
      return "drop-oldest";
    case AdmissionPolicy::kDropFair:
      return "drop-fair";
  }
  return "unknown";
}

namespace {
// Force a couple of common instantiations to catch template errors early.
[[maybe_unused]] void InstantiationCheck() {
  MapOperator<int, int> map_op("m", [](const int& x) { return x + 1; });
  FilterOperator<int> filter_op("f", [](const int& x) { return x > 0; });
  std::vector<int> out;
  map_op.ProcessCounted(1, &out);
  filter_op.ProcessCounted(2, &out);
  AdmissionQueue<int> queue({2, AdmissionPolicy::kDropOldest});
  queue.Push(1);
  queue.Close();
  EpochWatermarks marks(2);
  marks.Advance(0, 0);
}
}  // namespace
}  // namespace datacron
