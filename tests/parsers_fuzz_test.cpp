// Drives the parser fuzz harness (tests/fuzz/parsers_fuzz.cc) without
// libFuzzer: every committed corpus input, then a fixed number of mutants
// from a seeded byte mutator, so each build (the sanitizer sweep included)
// runs the same inputs. The harness aborts on a spec that does not read back
// to its own canonical text; an exception escaping it fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

int run(const std::string& input) {
  return LLVMFuzzerTestOneInput(
      reinterpret_cast<const std::uint8_t*>(input.data()), input.size());
}

std::vector<std::string> corpus() {
  std::vector<std::filesystem::path> files;
  for (const auto& e :
       std::filesystem::directory_iterator(NTIER_FUZZ_CORPUS_DIR))
    files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::vector<std::string> inputs;
  for (const auto& f : files) {
    std::ifstream in(f, std::ios::binary);
    inputs.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  return inputs;
}

/// Tokens a byte-level mutator rarely builds by itself: keys, flags,
/// separators and numbers at the edges of each field type.
const std::vector<std::string> kTokens = {
    ",", "=", "\n", "-", ".", "e", "0", "1", "inf", "nan", "1e300", "1e-10",
    "2147483648", "4294967296", "9223372036854775808",
    "18446744073709551616", "-9223372036854775809", "replicas", "n", "r",
    "w", "hints", "nodes", "bytes", "entry", "ttl_ms", "inval_queue",
    "coalesce", "seed", "duration", "base-rps", "flash-at", "abandon-p",
    "--kv", "--cache", "--cache-tier", "--db-tier\nkv", "--trace-gen",
    "--seed", "--clients", "--think-ms", "--replay-timeout-ms", "--overload",
    "--deadline-ms"};

/// A number of random magnitude and sign, as integer or decimal text.
std::string random_number(ntier::sim::Rng& rng) {
  char buf[32];
  const int shift = static_cast<int>(rng.uniform_int(0, 63));
  const int exp = static_cast<int>(rng.uniform_int(-40, 70));
  const auto [end, ec] =
      rng.bernoulli(0.5)
          ? std::to_chars(buf, buf + sizeof(buf), rng.next_u64() >> shift)
          : std::to_chars(buf, buf + sizeof(buf),
                          std::ldexp(rng.uniform01(), exp));
  return (rng.bernoulli(0.2) ? "-" : "") + std::string(buf, end);
}

void mutate(std::string& s, ntier::sim::Rng& rng) {
  const auto at = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  const char byte = static_cast<char>(rng.uniform_int(0, 255));
  switch (rng.uniform_int(0, 7)) {
    case 6:
    case 7: {  // replace the value after an '=' or a line break
      const std::size_t from = s.find_first_of("=\n", 1 + at(s.size() - 1));
      if (from == std::string::npos) break;
      const std::size_t end =
          std::min(s.find_first_of(",\n", from + 1), s.size());
      s.replace(from + 1, end - from - 1, random_number(rng));
      break;
    }
    case 0:  // flip one bit of one byte past the parser selector
      if (s.size() > 1) s[1 + at(s.size() - 2)] ^= static_cast<char>(1 << at(7));
      break;
    case 1:  // overwrite a byte
      if (s.size() > 1) s[1 + at(s.size() - 2)] = byte;
      break;
    case 2:  // insert a byte
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(1 + at(s.size() - 1)),
               byte);
      break;
    case 3:  // delete a run of up to four bytes
      if (s.size() > 1) s.erase(1 + at(s.size() - 2), 1 + at(3));
      break;
    case 4:  // insert a token
      s.insert(1 + at(s.size() - 1), kTokens[at(kTokens.size() - 1)]);
      break;
    default:  // duplicate a chunk
      if (s.size() > 1) {
        const std::size_t from = 1 + at(s.size() - 2);
        s.insert(1 + at(s.size() - 1), s.substr(from, 1 + at(7)));
      }
  }
}

TEST(ParsersFuzz, CorpusParsesWithoutCrashing) {
  const auto inputs = corpus();
  ASSERT_GE(inputs.size(), 8u);
  for (const auto& input : inputs) EXPECT_NO_THROW(run(input)) << input;
}

TEST(ParsersFuzz, SeededMutantsParseWithoutCrashing) {
  // Each mutant is one to three mutations on a corpus input (most of the
  // time) or on the previous mutant (to reach further), so that a fair share
  // of them still parse and take the read-back check.
  constexpr int kMutants = 50'000;
  const auto inputs = corpus();
  ASSERT_FALSE(inputs.empty());
  ntier::sim::Rng rng(0x5eedf00dULL);
  std::string input = inputs[0];
  for (int n = 0; n < kMutants; ++n) {
    if (rng.bernoulli(0.75))
      input = inputs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(inputs.size()) - 1))];
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int e = 0; e < edits; ++e) mutate(input, rng);
    if (input.size() > 512) input.resize(512);
    ASSERT_NO_THROW(run(input)) << input;
  }
}

}  // namespace
