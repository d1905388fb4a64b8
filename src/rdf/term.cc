#include "rdf/term.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "common/strings.h"
#include "rdf/vocab.h"

namespace datacron {

namespace {

constexpr int kInlineKindShift = 60;
constexpr TermId kInlinePayloadMask = (TermId{1} << kInlineKindShift) - 1;
constexpr TermId kInlineInt = 0;
constexpr TermId kInlineDouble = 1;
constexpr TermId kInlineDateTime = 2;
constexpr TermId kInlineNode = 3;

/// int / dateTime payloads are 60-bit two's complement.
constexpr std::int64_t kInlineIntLimit = std::int64_t{1} << 59;

/// double payload: bit 59 sign, bits 34-58 biased decimal exponent, bits
/// 0-33 mantissa (10 digits < 2^34).
constexpr TermId kDoubleSignBit = TermId{1} << 59;
constexpr int kMantissaBits = 34;
constexpr TermId kMantissaMask = (TermId{1} << kMantissaBits) - 1;
constexpr int kExponentBias = 1 << 10;
constexpr int kExponentLimit = 1 << 25;  // exponent field width

/// Position-node payload: entity in bits 30-59, ordinal in bits 0-29.
constexpr int kNodeOrdinalBits = 30;
constexpr std::uint64_t kNodeFieldLimit = std::uint64_t{1} << kNodeOrdinalBits;

constexpr std::string_view kDateTimePrefix = "dt:";
constexpr std::string_view kNodePrefix = "node:";

TermId MakeInline(TermId kind, TermId payload) {
  return kInlineTermBit | (kind << kInlineKindShift) | payload;
}

TermId InlineSigned(TermId kind, std::int64_t value) {
  if (value < -kInlineIntLimit || value >= kInlineIntLimit) {
    return kInvalidTermId;
  }
  return MakeInline(kind, static_cast<TermId>(value) & kInlinePayloadMask);
}

std::int64_t SignedPayload(TermId id) {
  const TermId payload = id & kInlinePayloadMask;
  // Sign-extend bit 59.
  return static_cast<std::int64_t>(payload << (64 - kInlineKindShift)) >>
         (64 - kInlineKindShift);
}

/// A double's literal text: `%.10g`, rendered without printf.
std::string_view RenderDouble(double value, char (&buf)[32]) {
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 10);
  return {buf, static_cast<std::size_t>(r.ptr - buf)};
}

std::string_view RenderInt(std::int64_t value, char (&buf)[32]) {
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  return {buf, static_cast<std::size_t>(r.ptr - buf)};
}

/// Parses the whole of `text` as an int64 whose rendering is `text`.
bool ParseCanonicalInt(std::string_view text, std::int64_t* value) {
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, *value);
  char buf[32];
  return r.ec == std::errc() && r.ptr == end && RenderInt(*value, buf) == text;
}

/// Inline id of canonical position-node text `node:<entity>#<ordinal>`;
/// kInvalidTermId for any other text.
TermId ParseInlineNode(std::string_view text) {
  if (!StartsWith(text, kNodePrefix)) return kInvalidTermId;
  text.remove_prefix(kNodePrefix.size());
  const std::size_t hash = text.find('#');
  std::int64_t entity = 0;
  std::int64_t ordinal = 0;
  if (hash == std::string_view::npos ||
      !ParseCanonicalInt(text.substr(0, hash), &entity) ||
      !ParseCanonicalInt(text.substr(hash + 1), &ordinal) || entity < 0 ||
      ordinal < 0) {
    return kInvalidTermId;
  }
  return InlineNode(static_cast<std::uint64_t>(entity),
                    static_cast<std::uint64_t>(ordinal));
}

/// The double a double payload encodes; false if it over- or underflows.
bool DecodeDouble(TermId payload, double* value) {
  const int exponent =
      static_cast<int>((payload & ~kDoubleSignBit) >> kMantissaBits) -
      kExponentBias;
  char buf[48];
  // At most 11 mantissa digits, so the 'e' always fits.
  char* p = std::to_chars(buf, buf + 16, payload & kMantissaMask).ptr;
  *p++ = 'e';
  p = std::to_chars(p, buf + sizeof(buf), exponent).ptr;
  if (std::from_chars(buf, p, *value).ec != std::errc()) return false;
  if (payload & kDoubleSignBit) *value = -*value;
  return true;
}

/// True if `text` parses as a finite double that renders as `text`: then
/// the id EncodeDoubleText gives it decodes (the same decimal, so the same
/// double) to `text` again.
bool RoundTrips(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, value);
  char buf[32];
  return r.ec == std::errc() && r.ptr == end && std::isfinite(value) &&
         RenderDouble(value, buf) == text;
}

/// Encodes `text`, the rendering of a finite double, as ±mantissa ×
/// 10^exponent with the mantissa's trailing zeros stripped.
TermId EncodeDoubleText(std::string_view text) {
  std::size_t i = 0;
  const bool negative = !text.empty() && text[0] == '-';
  if (negative) ++i;
  std::uint64_t mantissa = 0;
  int exponent = 0;
  int digits = 0;
  bool fraction = false;
  for (; i < text.size() && text[i] != 'e'; ++i) {
    if (text[i] == '.') {
      fraction = true;
      continue;
    }
    if (text[i] < '0' || text[i] > '9' || ++digits > 18) return kInvalidTermId;
    mantissa = mantissa * 10 + static_cast<std::uint64_t>(text[i] - '0');
    if (fraction) --exponent;
  }
  if (i < text.size()) {
    int e = 0;
    const char* begin = text.data() + i + 1;
    const char* end = text.data() + text.size();
    if (begin != end && *begin == '+') ++begin;
    const std::from_chars_result r = std::from_chars(begin, end, e);
    if (r.ec != std::errc() || r.ptr != end) return kInvalidTermId;
    exponent += e;
  }
  if (mantissa == 0) exponent = 0;
  while (mantissa != 0 && mantissa % 10 == 0) {
    mantissa /= 10;
    ++exponent;
  }
  if (mantissa > kMantissaMask || exponent < -kExponentBias ||
      exponent + kExponentBias >= kExponentLimit) {
    return kInvalidTermId;
  }
  return MakeInline(
      kInlineDouble,
      (negative ? kDoubleSignBit : 0) |
          (static_cast<TermId>(exponent + kExponentBias) << kMantissaBits) |
          mantissa);
}

/// Text of inline double id `id`, rendered into `buf`. Empty if the
/// payload is not the one its value's text encodes to (no value gives that
/// id); otherwise the text renders from the id by construction.
std::string_view InlineDoubleText(TermId id, char (&buf)[32]) {
  double value = 0;
  if (!DecodeDouble(id & kInlinePayloadMask, &value)) return {};
  const std::string_view rendered = RenderDouble(value, buf);
  return EncodeDoubleText(rendered) == id ? rendered : std::string_view{};
}

/// Inline id of canonical `text` of kind `kind` (see TermSource::Intern);
/// kInvalidTermId otherwise.
TermId InlineText(std::string_view text, TermKind kind) {
  std::int64_t value = 0;
  switch (kind) {
    case TermKind::kIri:
      return ParseInlineNode(text);
    case TermKind::kLiteralInt:
      return ParseCanonicalInt(text, &value) ? InlineInt(value)
                                              : kInvalidTermId;
    case TermKind::kLiteralDateTime:
      return StartsWith(text, kDateTimePrefix) &&
                     ParseCanonicalInt(text.substr(kDateTimePrefix.size()),
                                       &value)
                 ? InlineDateTime(value)
                 : kInvalidTermId;
    case TermKind::kLiteralDouble:
      return RoundTrips(text) ? EncodeDoubleText(text) : kInvalidTermId;
    case TermKind::kLiteralString:
      break;
  }
  return kInvalidTermId;
}

}  // namespace

TermId InlineInt(std::int64_t value) { return InlineSigned(kInlineInt, value); }

TermId InlineDateTime(std::int64_t epoch_ms) {
  return InlineSigned(kInlineDateTime, epoch_ms);
}

TermId InlineNode(std::uint64_t entity, std::uint64_t ordinal) {
  if (entity >= kNodeFieldLimit || ordinal >= kNodeFieldLimit) {
    return kInvalidTermId;
  }
  return MakeInline(kInlineNode, entity << kNodeOrdinalBits | ordinal);
}

TermId InlineDouble(double value) {
  if (!std::isfinite(value)) return kInvalidTermId;
  char buf[32];
  const std::string_view text = RenderDouble(value, buf);
  return RoundTrips(text) ? EncodeDoubleText(text) : kInvalidTermId;
}

bool InlineTermKind(TermId id, TermKind* kind) {
  if (!IsInlineTerm(id)) return false;
  char buf[32];
  switch ((id >> kInlineKindShift) & 3) {
    case kInlineInt:
      *kind = TermKind::kLiteralInt;
      return true;
    case kInlineDateTime:
      *kind = TermKind::kLiteralDateTime;
      return true;
    case kInlineNode:
      *kind = TermKind::kIri;
      return true;
    case kInlineDouble:
      if (InlineDoubleText(id, buf).empty()) return false;
      *kind = TermKind::kLiteralDouble;
      return true;
  }
  return false;
}

bool InlineTermText(TermId id, TermKind* kind, std::string* text) {
  if (!IsInlineTerm(id)) return false;
  char buf[32];
  switch ((id >> kInlineKindShift) & 3) {
    case kInlineInt:
      *kind = TermKind::kLiteralInt;
      *text = RenderInt(SignedPayload(id), buf);
      return true;
    case kInlineDateTime:
      *kind = TermKind::kLiteralDateTime;
      *text = kDateTimePrefix;
      *text += RenderInt(SignedPayload(id), buf);
      return true;
    case kInlineNode: {
      const TermId payload = id & kInlinePayloadMask;
      *kind = TermKind::kIri;
      *text = PositionNodeIri(
          static_cast<std::uint32_t>(payload >> kNodeOrdinalBits),
          payload & (kNodeFieldLimit - 1));
      return true;
    }
    case kInlineDouble: {
      const std::string_view rendered = InlineDoubleText(id, buf);
      if (rendered.empty()) return false;
      *kind = TermKind::kLiteralDouble;
      *text = rendered;
      return true;
    }
  }
  return false;
}

TermId TermSource::InternInt(std::int64_t value) {
  const TermId id = InlineInt(value);
  if (id != kInvalidTermId) return id;
  char buf[32];
  return Intern(RenderInt(value, buf), TermKind::kLiteralInt);
}

TermId TermSource::InternDouble(double value) {
  const TermId id = InlineDouble(value);
  if (id != kInvalidTermId) return id;
  char buf[32];
  return Intern(RenderDouble(value, buf), TermKind::kLiteralDouble);
}

TermId TermSource::InternDateTime(std::int64_t epoch_ms) {
  const TermId id = InlineDateTime(epoch_ms);
  if (id != kInvalidTermId) return id;
  return Intern(StrFormat("dt:%lld", static_cast<long long>(epoch_ms)),
                TermKind::kLiteralDateTime);
}

TermId TermSource::InternNode(std::uint32_t entity, std::uint64_t ordinal) {
  const TermId id = InlineNode(entity, ordinal);
  if (id != kInvalidTermId) return id;
  return Intern(PositionNodeIri(entity, ordinal));
}

TermDictionary::TermDictionary() = default;

TermDictionary::Stripe& TermDictionary::StripeOf(const TermKey& key) const {
  const std::size_t h = TermKeyHash{}(key);
  // kStripes is a power of two; mix the high bits in so unordered_map
  // bucket selection (low bits) and stripe selection stay independent.
  return const_cast<Stripe&>(stripes_[(h ^ (h >> 17)) & (kStripes - 1)]);
}

TermId TermDictionary::Intern(std::string_view text, TermKind kind) {
  if (const TermId id = InlineText(text, kind); id != kInvalidTermId) {
    return id;
  }
  const TermKey key{text, kind};
  Stripe& stripe = StripeOf(key);
  std::lock_guard<std::mutex> stripe_lock(stripe.mu);
  auto it = stripe.ids.find(key);
  if (it != stripe.ids.end()) return it->second;

  TermId id;
  std::string_view stored;
  {
    std::lock_guard<std::mutex> id_lock(id_mu_);
    texts_.emplace_back(text);
    kinds_.push_back(kind);
    id = static_cast<TermId>(texts_.size());
    stored = texts_.back();
  }
  count_.fetch_add(1, std::memory_order_release);
  stripe.ids.emplace(TermKey{stored, kind}, id);
  return id;
}

TermId TermDictionary::Find(std::string_view text, TermKind kind) const {
  if (const TermId id = InlineText(text, kind); id != kInvalidTermId) {
    return id;
  }
  const TermKey key{text, kind};
  const Stripe& stripe = StripeOf(key);
  std::lock_guard<std::mutex> stripe_lock(stripe.mu);
  auto it = stripe.ids.find(key);
  return it == stripe.ids.end() ? kInvalidTermId : it->second;
}

Result<std::string> TermDictionary::Text(TermId id) const {
  if (IsInlineTerm(id)) {
    TermKind kind = TermKind::kIri;
    std::string text;
    if (InlineTermText(id, &kind, &text)) return text;
  }
  std::lock_guard<std::mutex> id_lock(id_mu_);
  if (id == kInvalidTermId || id > texts_.size()) {
    return Status::NotFound(StrFormat("unknown term id %llu",
                                      static_cast<unsigned long long>(id)));
  }
  return texts_[id - 1];
}

TermKind TermDictionary::Kind(TermId id) const {
  if (IsInlineTerm(id)) {
    TermKind kind = TermKind::kIri;
    InlineTermKind(id, &kind);
    return kind;
  }
  std::lock_guard<std::mutex> id_lock(id_mu_);
  if (id == kInvalidTermId || id > kinds_.size()) return TermKind::kIri;
  return kinds_[id - 1];
}

Result<std::vector<TermExport>> TermDictionary::ExportRange(
    TermId first_id, std::size_t count) const {
  std::vector<TermExport> out;
  out.reserve(count);
  std::lock_guard<std::mutex> id_lock(id_mu_);
  if (first_id == kInvalidTermId || first_id + count > texts_.size() + 1) {
    return Status::OutOfRange(
        StrFormat("export range [%llu, %llu) exceeds dictionary size %zu",
                  static_cast<unsigned long long>(first_id),
                  static_cast<unsigned long long>(first_id + count),
                  texts_.size()));
  }
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(TermExport{texts_[first_id - 1 + i],
                             kinds_[first_id - 1 + i]});
  }
  return out;
}

void TermDictionary::ImportDelta(std::span<const TermExport> delta,
                                 std::vector<TermId>* remap) {
  remap->reserve(remap->size() + delta.size());
  for (const TermExport& t : delta) {
    remap->push_back(Intern(t.text, t.kind));
  }
}

std::vector<TermId> TermDictionary::MergeBatch(const TermBatch& batch) {
  std::vector<TermId> remap(batch.local_size());
  for (std::size_t i = 0; i < batch.local_size(); ++i) {
    remap[i] = Intern(batch.local_text(i), batch.local_kind(i));
  }
  return remap;
}

TermId TermBatch::Intern(std::string_view text, TermKind kind) {
  if (const TermId id = InlineText(text, kind); id != kInvalidTermId) {
    return id;
  }
  if (global_ != nullptr) {
    const TermId global_id = global_->Find(text, kind);
    if (global_id != kInvalidTermId) return global_id;
  }
  const TermKey key{text, kind};
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  texts_.emplace_back(text);
  kinds_.push_back(kind);
  const TermId id = kLocalTermBit | static_cast<TermId>(texts_.size() - 1);
  ids_.emplace(TermKey{texts_.back(), kind}, id);
  return id;
}

}  // namespace datacron
