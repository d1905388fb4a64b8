#ifndef DATACRON_RDF_TERM_H_
#define DATACRON_RDF_TERM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace datacron {

/// Dictionary-encoded RDF term identifier. 0 is reserved (invalid).
using TermId = std::uint64_t;

constexpr TermId kInvalidTermId = 0;

/// High bit marking a *batch-local* id produced by TermBatch during
/// parallel ingest. Local ids never escape: TermDictionary::MergeBatch
/// rewrites them to global ids before triples reach any store.
constexpr TermId kLocalTermBit = TermId{1} << 63;

/// Bit marking an *inline* id: a typed literal or a position node whose
/// value is encoded in the id itself (the inline NodeIds of RDF-3X and
/// Jena TDB2). Inline ids never enter a TermBatch, a TermDictionary or a
/// cluster dictionary delta; every path computes the same id from the
/// value alone. Bits 60–61 hold the kind (0 int, 1 double, 2 dateTime,
/// 3 position node) and bits 0–59 the payload:
///  - int / dateTime: the value as 60-bit two's complement;
///  - double: the canonical decimal of the value's `%.10g` text — sign
///    (bit 59), decimal exponent (bits 34–58, biased) and a mantissa of at
///    most 10 digits without trailing zeros (bits 0–33) — so two doubles
///    share an id exactly when they share a text;
///  - position node: the entity (bits 30–59) above its node ordinal (bits
///    0–29), so one entity's nodes are contiguous and in time order in id
///    order. The text is `node:<entity>#<ordinal>`.
/// A value is inlined only if decoding its id renders its text; the rest
/// (NaN, ±inf, DBL_MAX, integers beyond ±2^59, an entity or ordinal of
/// 2^30 or more) stay dictionary terms with the same text.
constexpr TermId kInlineTermBit = TermId{1} << 62;

/// True for an id of the inline space (neither batch-local nor a
/// dictionary id). Says nothing about well-formedness; see
/// InlineTermKind.
inline bool IsInlineTerm(TermId id) {
  return (id & (kLocalTermBit | kInlineTermBit)) == kInlineTermBit;
}

/// Kind of an RDF term. Spatiotemporal resource ids additionally embed a
/// grid cell / time bucket (see SpatioTemporalEncoder) but remain ordinary
/// IRIs at the dictionary level.
enum class TermKind : std::uint8_t {
  kIri = 0,
  kLiteralString,
  kLiteralInt,
  kLiteralDouble,
  kLiteralDateTime,
};

/// Inline id of a typed literal value or of position node `ordinal` of
/// `entity`; kInvalidTermId when the value does not fit (see
/// kInlineTermBit).
TermId InlineInt(std::int64_t value);
TermId InlineDouble(double value);
TermId InlineDateTime(std::int64_t epoch_ms);
TermId InlineNode(std::uint64_t entity, std::uint64_t ordinal);

/// Kind and text of a well-formed inline id. False for an id that is not
/// inline or carries a double payload that no value encodes to.
bool InlineTermText(TermId id, TermKind* kind, std::string* text);

/// Kind of a well-formed inline id (as InlineTermText) without rendering
/// its text.
bool InlineTermKind(TermId id, TermKind* kind);

/// Anything that can intern terms: the global TermDictionary on the serial
/// path, a TermBatch on the parallel ingest path. The typed-literal and
/// position-node helpers try the inline form first and otherwise intern
/// the value's text.
class TermSource {
 public:
  virtual ~TermSource() = default;

  /// Returns the id of `text` (of kind `kind`), interning it if new.
  /// Int, double, dateTime and position-node text that is canonical —
  /// exactly what InternInt, InternDouble, InternDateTime or InternNode
  /// renders for its value — yields its inline id, so "12.5" and
  /// InternDouble(12.5) share an id while "12.50" and `node:07#1` are
  /// dictionary terms.
  virtual TermId Intern(std::string_view text,
                        TermKind kind = TermKind::kIri) = 0;

  /// Convenience: the id of a typed literal value.
  TermId InternInt(std::int64_t value);
  TermId InternDouble(double value);
  TermId InternDateTime(std::int64_t epoch_ms);
  /// The id of position node `ordinal` of `entity` (PositionNodeIri).
  TermId InternNode(std::uint32_t entity, std::uint64_t ordinal);
};

/// Dictionary key: a term is its text *and* its kind, so `<5>`,
/// `"5"^^string` and a non-inlined `"5"^^int` are distinct terms.
struct TermKey {
  std::string_view text;
  TermKind kind = TermKind::kIri;

  bool operator==(const TermKey&) const = default;
};

struct TermKeyHash {
  std::size_t operator()(const TermKey& key) const {
    return std::hash<std::string_view>{}(key.text) ^
           (static_cast<std::size_t>(key.kind) * 0x9E3779B97F4A7C15ull);
  }
};

class TermBatch;

/// One exported dictionary entry: the unit of the epoch dictionary deltas
/// a cluster node ships to the coordinator (see cluster/). Exported in id
/// order, so importing a delta reproduces the node's interning order.
struct TermExport {
  std::string text;
  TermKind kind = TermKind::kIri;

  bool operator==(const TermExport&) const = default;
};

/// Bidirectional string<->id dictionary. Encoding datasets once and
/// operating on fixed-width ids is what makes triple joins cheap — the
/// standard design of RDF stores (RDF-3X, Virtuoso) that datAcron's
/// parallel stores build on.
///
/// Thread-safe via lock striping: the (kind, text)->id map is sharded into
/// kStripes stripes keyed by the key hash, so concurrent Intern/Find
/// calls only contend when they touch the same stripe (misses additionally
/// serialize briefly on the id allocator). Ids are dense over dictionary
/// terms and assigned in arrival order; inline ids (kInlineTermBit) sit
/// above every dictionary id and never consume one. Arrival order
/// makes the single-threaded path bit-for-bit what it always was;
/// deterministic ids under parallel ingest come from the two-phase
/// TermBatch + MergeBatch scheme (see DESIGN.md).
class TermDictionary : public TermSource {
 public:
  TermDictionary();

  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;

  /// Returns the id of `text` (of kind `kind`), interning it if new.
  /// Deterministic: the same insertion sequence yields the same ids.
  TermId Intern(std::string_view text, TermKind kind = TermKind::kIri) override;

  /// Lookup without interning; kInvalidTermId when absent. Canonical
  /// inline text is always present.
  TermId Find(std::string_view text, TermKind kind = TermKind::kIri) const;

  /// Inverse mapping; decodes inline ids. Returns an error for unknown or
  /// malformed ids.
  Result<std::string> Text(TermId id) const;

  TermKind Kind(TermId id) const;

  /// Number of dictionary entries; inline ids are not counted.
  std::size_t size() const { return count_.load(std::memory_order_acquire); }

  /// Interns every batch-local term of `batch` in local-id order and
  /// returns the remap table: remap[i] is the global id of local id i.
  /// Because local dictionaries preserve first-occurrence order and
  /// callers merge chunks in input order, the resulting global ids are
  /// identical to what serial interning of the full input would produce —
  /// independent of thread count and chunk boundaries.
  std::vector<TermId> MergeBatch(const TermBatch& batch);

  /// Exports the `count` entries starting at id `first_id` in id order —
  /// the dictionary delta for one epoch (or one report) of cluster
  /// ingest. Ids outside [1, size()] yield an error, never a crash.
  Result<std::vector<TermExport>> ExportRange(TermId first_id,
                                              std::size_t count) const;

  /// Interns an exported delta in order, appending one global id per
  /// entry to `remap`. After importing node deltas in the node's id
  /// order, `(*remap)[i]` is the global id of node-local id `i + base`
  /// where `base` is the remap size before the first import — exactly the
  /// node-local-to-global translation table the cluster coordinator keeps
  /// per node. Idempotent: entries already present resolve to their
  /// existing ids. The span overload lets the cluster coordinator replay
  /// sub-ranges of one coalesced per-epoch delta (sliced per report by
  /// the shipped term counts) without copying.
  void ImportDelta(std::span<const TermExport> delta,
                   std::vector<TermId>* remap);
  void ImportDelta(const std::vector<TermExport>& delta,
                   std::vector<TermId>* remap) {
    ImportDelta(std::span<const TermExport>(delta), remap);
  }

 private:
  static constexpr std::size_t kStripes = 16;  // power of two

  struct Stripe {
    mutable std::mutex mu;
    /// Keys view into texts_ entries (std::deque never relocates), so the
    /// hot lookup path hashes the caller's bytes directly — no temporary
    /// std::string per probe.
    std::unordered_map<TermKey, TermId, TermKeyHash> ids;
  };

  Stripe& StripeOf(const TermKey& key) const;

  std::array<Stripe, kStripes> stripes_;
  mutable std::mutex id_mu_;       // guards texts_/kinds_ growth
  std::deque<std::string> texts_;  // index = id - 1; stable storage
  std::deque<TermKind> kinds_;
  std::atomic<std::size_t> count_{0};
};

/// Thread-local dictionary for one ingest chunk (phase 1 of the two-phase
/// parallel intern). Global hits resolve to real ids via a read-only probe
/// of the shared dictionary; new terms get batch-local ids tagged with
/// kLocalTermBit, later rewritten by TermDictionary::MergeBatch. No locks
/// on this path — each worker owns its batch exclusively.
class TermBatch : public TermSource {
 public:
  /// `global` may be null (pure local batch). Concurrent mutation of
  /// `global` while this batch interns is allowed (Find is lock-striped):
  /// a probe that misses a term another thread is adding just produces a
  /// batch-local id, and MergeBatch re-interning it later is idempotent —
  /// the remap resolves to the already-assigned global id.
  explicit TermBatch(const TermDictionary* global) : global_(global) {}

  TermId Intern(std::string_view text, TermKind kind = TermKind::kIri) override;

  /// Number of batch-local (new) terms.
  std::size_t local_size() const { return texts_.size(); }

  /// Local term text/kind by local index, in first-occurrence order.
  const std::string& local_text(std::size_t i) const { return texts_[i]; }
  TermKind local_kind(std::size_t i) const { return kinds_[i]; }

 private:
  const TermDictionary* global_;
  std::unordered_map<TermKey, TermId, TermKeyHash> ids_;
  std::deque<std::string> texts_;  // stable storage for map keys
  std::vector<TermKind> kinds_;
};

/// Rewrites a possibly batch-local id through `remap` (from MergeBatch);
/// dictionary and inline ids pass through unchanged.
inline TermId RemapTerm(TermId id, const std::vector<TermId>& remap) {
  return (id & kLocalTermBit) ? remap[id & ~kLocalTermBit] : id;
}

}  // namespace datacron

#endif  // DATACRON_RDF_TERM_H_
