// Mutation sources for the text-decoder robustness tests, in the style of
// net_test's codec fuzzing: every strict prefix of a valid input and
// every single-byte replacement with a byte text decoders treat
// specially. A decoder fed any mutant must return a Status (or skip the
// line, for stream decoders) — never crash or hit undefined behaviour,
// which the ASan+UBSan CI job checks.
#ifndef DATACRON_TESTS_FUZZ_MUTATIONS_H_
#define DATACRON_TESTS_FUZZ_MUTATIONS_H_

#include <cstddef>
#include <string>

namespace datacron {

/// NUL, a non-ASCII byte, and the field, quote, checksum and line
/// delimiters of the repo's text formats.
inline constexpr char kFuzzBytes[] = {'\0', '\xFF', ',', '"', '*', '\n'};

/// Calls fn(prefix) for every strict prefix of `valid`.
template <typename Fn>
void ForEachPrefix(const std::string& valid, Fn&& fn) {
  for (std::size_t len = 0; len < valid.size(); ++len) {
    fn(valid.substr(0, len));
  }
}

/// Calls fn(mutant) for every replacement of one byte of `valid` with a
/// different byte from kFuzzBytes.
template <typename Fn>
void ForEachByteCorruption(const std::string& valid, Fn&& fn) {
  for (std::size_t off = 0; off < valid.size(); ++off) {
    for (const char b : kFuzzBytes) {
      if (valid[off] == b) continue;
      std::string mutant = valid;
      mutant[off] = b;
      fn(mutant);
    }
  }
}

}  // namespace datacron

#endif  // DATACRON_TESTS_FUZZ_MUTATIONS_H_
