// Fuzz harness over every text-set configuration entry point: the three
// key=value specs read by sim::parse_spec (--kv, --cache, --trace-gen) and
// ntier_run's command line (cli::parse_cli).
//
// The first input byte picks the parser by its value mod 4 ('0' KvConfig,
// '1' CacheConfig, '2' TraceGenSpec, '3' command line); the rest is the
// text, split at '\n' into arguments for the command line. A crash, an
// escaping exception or an accepted spec whose canonical text does not read
// back to itself is a finding; the harness reports a failed read-back on
// stderr and aborts.
//
// parsers_fuzz_test runs it in every build over tests/fuzz/corpus plus a
// seeded byte mutator. With clang and libFuzzer, link this file alone
// against ntier_cli with -fsanitize=fuzzer,address,undefined.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "cache/config.h"
#include "cli/cli.h"
#include "kv/config.h"
#include "sim/fields.h"
#include "workload/trace_gen.h"

namespace {

/// Aborts unless `cfg`'s canonical text reads back to the same text.
template <class T>
void check_reads_back(const T& cfg, std::string_view input) {
  const std::string text = ntier::sim::spec_text(cfg);
  std::string err;
  const auto back = ntier::sim::parse_spec<T>(text, &err);
  if (back && ntier::sim::spec_text(*back) == text) return;
  std::fprintf(stderr,
               "canonical text does not read back: '%s' (%s)\ninput: '%.*s'\n",
               text.c_str(), err.c_str(), static_cast<int>(input.size()),
               input.data());
  std::abort();
}

template <class T>
void fuzz_spec(std::string_view text) {
  const auto cfg = ntier::sim::parse_spec<T>(text, nullptr);
  if (cfg) check_reads_back(*cfg, text);
}

void fuzz_command_line(std::string_view text) {
  std::vector<std::string> args;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    args.emplace_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  const auto parsed = ntier::cli::parse_cli(args);
  if (!parsed.ok()) return;
  const auto& o = *parsed.options;
  check_reads_back(o.config.kv, text);
  check_reads_back(o.config.cache, text);
  if (o.trace_gen) check_reads_back(*o.trace_gen, text);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::string_view text(reinterpret_cast<const char*>(data) + 1, size - 1);
  switch (data[0] % 4) {
    case 0:
      fuzz_spec<ntier::kv::KvConfig>(text);
      break;
    case 1:
      fuzz_spec<ntier::cache::CacheConfig>(text);
      break;
    case 2:
      fuzz_spec<ntier::workload::TraceGenSpec>(text);
      break;
    default:
      fuzz_command_line(text);
  }
  return 0;
}
