#include "rdf/triple_store.h"

#include <algorithm>

#include "common/parallel_sort.h"
#include "common/thread_pool.h"

namespace datacron {

namespace {

struct SpoLess {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  }
};

struct PosLess {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.o != b.o) return a.o < b.o;
    return a.s < b.s;
  }
};

struct OspLess {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.o != b.o) return a.o < b.o;
    if (a.s != b.s) return a.s < b.s;
    return a.p < b.p;
  }
};

/// The index range of `index` whose keys lie in [lo_key, hi_key]. The
/// end is found by galloping from the start (lo+1, lo+2, lo+4, ...), so a
/// short range costs O(log width) comparisons on cache lines next to the
/// start instead of a second search over the whole index.
template <typename Less>
std::span<const Triple> PrefixRange(std::span<const Triple> index,
                                    const Triple& lo_key,
                                    const Triple& hi_key, Less less) {
  const auto lo = std::lower_bound(index.begin(), index.end(), lo_key, less);
  auto inside = lo;  // every element before `inside` is <= hi_key
  auto probe = lo;
  for (std::ptrdiff_t step = 1;
       probe != index.end() && !less(hi_key, *probe); step *= 2) {
    inside = probe + 1;
    probe = index.end() - probe > step ? probe + step : index.end();
  }
  return {lo, std::upper_bound(inside, probe, hi_key, less)};
}

/// Fills `dir` with the run of every leading key of sorted `index`, the
/// key being the `key` member of each triple.
template <typename Run>
void BuildDirectory(const std::vector<Triple>& index, TermId Triple::*key,
                    FlatHashMap<TermId, Run>* dir) {
  std::size_t keys = 0;
  for (std::size_t i = 0; i < index.size(); ++i) {
    keys += i == 0 || index[i].*key != index[i - 1].*key;
  }
  dir->Clear();
  dir->Reserve(keys);
  for (std::size_t begin = 0; begin < index.size();) {
    std::size_t end = begin + 1;
    while (end < index.size() && index[end].*key == index[begin].*key) ++end;
    (*dir)[index[begin].*key] = Run{begin, end};
    begin = end;
  }
}

/// The triples of `index` whose leading key is `key`, via `dir`.
template <typename Run>
std::span<const Triple> LeadingRun(const std::vector<Triple>& index,
                                   const FlatHashMap<TermId, Run>& dir,
                                   TermId key) {
  const Run* run = dir.Find(key);
  if (run == nullptr) return {};
  return std::span<const Triple>(index).subspan(run->begin,
                                                run->end - run->begin);
}

constexpr TermId kMaxTerm = ~static_cast<TermId>(0);

}  // namespace

void TripleStore::Add(const Triple& t) {
  spo_.push_back(t);
  sealed_ = false;
}

void TripleStore::AddBatch(const std::vector<Triple>& batch) {
  // Reserve up front (keeping geometric growth across repeated batches) so
  // bulk load does not reallocate mid-insert.
  if (spo_.capacity() < spo_.size() + batch.size()) {
    spo_.reserve(std::max(spo_.size() + batch.size(), 2 * spo_.capacity()));
  }
  spo_.insert(spo_.end(), batch.begin(), batch.end());
  sealed_ = false;
}

void TripleStore::Seal(ThreadPool* pool) {
  if (sealed_) return;
  ParallelSort(&spo_, SpoLess(), pool);
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  auto build_pos = [this, pool] {
    pos_.clear();
    pos_.reserve(spo_.size());
    pos_.assign(spo_.begin(), spo_.end());
    ParallelSort(&pos_, PosLess(), pool);
    BuildDirectory(pos_, &Triple::p, &predicate_runs_);
  };
  auto build_osp = [this, pool] {
    osp_.clear();
    osp_.reserve(spo_.size());
    osp_.assign(spo_.begin(), spo_.end());
    ParallelSort(&osp_, OspLess(), pool);
  };
  auto build_subjects = [this] {
    BuildDirectory(spo_, &Triple::s, &subject_runs_);
  };
  if (pool != nullptr && pool->num_threads() >= 2 &&
      spo_.size() >= kMinParallelSortSize) {
    // The two permutation builds and the subject directory are
    // independent; run them as one three-iteration ParallelFor so the
    // caller help-runs if it is itself a pool worker.
    pool->ParallelFor(3, [&](std::size_t i) {
      if (i == 0) {
        build_pos();
      } else if (i == 1) {
        build_osp();
      } else {
        build_subjects();
      }
    });
  } else {
    build_pos();
    build_osp();
    build_subjects();
  }
  sealed_ = true;
}

TripleStore::Perm TripleStore::ChoosePerm(const TriplePattern& q) const {
  const bool s = q.s != kInvalidTermId;
  const bool p = q.p != kInvalidTermId;
  const bool o = q.o != kInvalidTermId;
  // The permutation whose leading components are exactly the bound ones.
  if (s && (p || !o)) return Perm::kSpo;  // S**, SP*, SPO
  if (p) return Perm::kPos;               // *P*, *PO
  if (o) return Perm::kOsp;               // **O, S*O
  return Perm::kSpo;                      // full scan
}

std::span<const Triple> TripleStore::Range(const TriplePattern& q) const {
  // The bound components lead the chosen order, so the range runs from
  // the pattern with wildcards as 0 to the pattern with wildcards as max.
  // SPO and POS ranges start from the leading key's run, which is the
  // whole answer when no second component is bound.
  const Triple lo{q.s, q.p, q.o};
  auto top = [](TermId t) { return t != kInvalidTermId ? t : kMaxTerm; };
  const Triple hi{top(q.s), top(q.p), top(q.o)};
  const bool narrow = q.BoundCount() > 1;
  switch (ChoosePerm(q)) {
    case Perm::kSpo: {
      if (q.s == kInvalidTermId) return spo_;  // full scan
      const std::span<const Triple> run =
          LeadingRun(spo_, subject_runs_, q.s);
      return narrow ? PrefixRange(run, lo, hi, SpoLess()) : run;
    }
    case Perm::kPos: {
      const std::span<const Triple> run =
          LeadingRun(pos_, predicate_runs_, q.p);
      return narrow ? PrefixRange(run, lo, hi, PosLess()) : run;
    }
    case Perm::kOsp:
      return PrefixRange(osp_, lo, hi, OspLess());
  }
  return {};
}

void TripleStore::Scan(
    const TriplePattern& q,
    const std::function<bool(const Triple&)>& visit) const {
  for (const Triple& t : Range(q)) {
    if (!visit(t)) return;
  }
}

std::vector<Triple> TripleStore::Match(const TriplePattern& q) const {
  const std::span<const Triple> range = Range(q);
  return {range.begin(), range.end()};
}

std::vector<TermId> TripleStore::Predicates() const {
  std::vector<TermId> out;
  TermId last = kInvalidTermId;
  for (const Triple& t : pos_) {
    if (t.p != last) {
      out.push_back(t.p);
      last = t.p;
    }
  }
  return out;
}

}  // namespace datacron
