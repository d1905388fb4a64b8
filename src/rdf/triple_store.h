#ifndef DATACRON_RDF_TRIPLE_STORE_H_
#define DATACRON_RDF_TRIPLE_STORE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/flat_hash.h"
#include "rdf/term.h"

namespace datacron {

class ThreadPool;

/// One dictionary-encoded RDF statement.
struct Triple {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;

  bool operator==(const Triple&) const = default;
};

/// A triple pattern; kInvalidTermId (0) in a position means "wildcard".
struct TriplePattern {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;

  int BoundCount() const {
    return (s != kInvalidTermId) + (p != kInvalidTermId) +
           (o != kInvalidTermId);
  }
};

/// In-memory triple store with three sorted permutation indexes
/// (SPO, POS, OSP) — the RDF-3X layout. Writes are buffered and indexed on
/// Seal(); the streaming path appends batches and reseals per window, the
/// archival path bulk-loads once. Every pattern shape is a prefix of one
/// permutation (S?O of OSP), so its matches are one contiguous index range.
/// Seal also builds a leading-key directory — each subject's run in SPO
/// and each predicate's run in POS — so a pattern with a bound subject, or
/// a bound predicate and unbound subject, starts from one hash lookup; with
/// a second bound component the range narrows inside that run. Only S?O and
/// ??O search the whole OSP index.
class TripleStore {
 public:
  TripleStore() = default;

  /// Appends a triple to the unsealed buffer.
  void Add(const Triple& t);
  void AddBatch(const std::vector<Triple>& batch);

  /// Reserves buffer capacity for an upcoming bulk load.
  void Reserve(std::size_t n) { spo_.reserve(n); }

  /// Sorts the three permutations, deduplicates and builds the leading-key
  /// directory. Idempotent. With a pool, the SPO sort runs as a chunked
  /// parallel sort and the POS and OSP permutations build concurrently;
  /// the sealed indexes are byte-identical to the serial path (sorted +
  /// deduplicated is a canonical form). Safe to call from inside a pool
  /// task.
  void Seal(ThreadPool* pool = nullptr);

  bool sealed() const { return sealed_; }
  std::size_t size() const { return spo_.size(); }

  /// Distinct subjects of the sealed store.
  std::size_t subjects() const { return subject_runs_.size(); }

  /// Every triple matching `pattern`, as a view into the index whose
  /// order makes the pattern a prefix. Valid until the next Add/Seal.
  /// Requires sealed().
  std::span<const Triple> Range(const TriplePattern& pattern) const;

  /// All triples matching `pattern`. Requires sealed().
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Visitor variant to avoid materialization; return false to stop early.
  void Scan(const TriplePattern& pattern,
            const std::function<bool(const Triple&)>& visit) const;

  /// Exact number of matches: the width of Range() — one hash lookup for
  /// S?? and ?P?, a search inside that run for SP? / SPO / ?PO, two binary
  /// searches over OSP for S?O / ??O. Used for join ordering.
  std::size_t Count(const TriplePattern& pattern) const {
    return Range(pattern).size();
  }

  /// Distinct predicates in the store (diagnostics / stats).
  std::vector<TermId> Predicates() const;

 private:
  enum class Perm { kSpo, kPos, kOsp };

  /// [begin, end) of one leading key's triples in its index.
  struct KeyRun {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Chooses the permutation whose sort order makes `pattern` a prefix.
  Perm ChoosePerm(const TriplePattern& pattern) const;

  std::vector<Triple> spo_;
  std::vector<Triple> pos_;
  std::vector<Triple> osp_;
  /// The leading-key directory: subject -> run in spo_, predicate -> run
  /// in pos_. Rebuilt by every Seal.
  FlatHashMap<TermId, KeyRun> subject_runs_;
  FlatHashMap<TermId, KeyRun> predicate_runs_;
  bool sealed_ = false;
};

}  // namespace datacron

#endif  // DATACRON_RDF_TRIPLE_STORE_H_
