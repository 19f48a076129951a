#include "profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

namespace perf::profiler {
namespace {

#if defined(__x86_64__) && defined(__linux__)
constexpr bool kSupported = true;
#else
constexpr bool kSupported = false;
#endif

constexpr std::size_t kCapacity = 1u << 18;  // ~17 min at 250 Hz
std::uintptr_t g_pcs[kCapacity];
std::atomic<std::size_t> g_count{0};

void on_sigprof(int, siginfo_t*, void* ctx) {
#if defined(__x86_64__) && defined(__linux__)
  const auto* uc = static_cast<const ucontext_t*>(ctx);
  const std::size_t i = g_count.load(std::memory_order_relaxed);
  if (i < kCapacity) {
    g_pcs[i] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    g_count.store(i + 1, std::memory_order_relaxed);
  }
#else
  (void)ctx;
#endif
}

void set_timer(long usec) {
  itimerval t{};
  t.it_interval.tv_usec = usec;
  t.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &t, nullptr);
}

/// Function symbols of the running executable, read from its .symtab
/// (which, unlike the dynamic table, also names file-local functions).
class ExeSymbols {
 public:
  ExeSymbols() { load(); }
  ~ExeSymbols() {
    if (map_ != MAP_FAILED) munmap(map_, size_);
  }
  ExeSymbols(const ExeSymbols&) = delete;
  ExeSymbols& operator=(const ExeSymbols&) = delete;

  /// Mangled name of the function containing `pc`, or null.
  const char* find(std::uintptr_t pc) const {
    if (pc < bias_) return nullptr;
    const std::uintptr_t addr = pc - bias_;
    auto it = std::upper_bound(
        syms_.begin(), syms_.end(), addr,
        [](std::uintptr_t a, const Sym& s) { return a < s.lo; });
    if (it == syms_.begin()) return nullptr;
    --it;
    return addr < it->hi ? it->name : nullptr;
  }

 private:
  struct Sym {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    const char* name = nullptr;
  };

  void load() {
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* self) {
          static_cast<ExeSymbols*>(self)->bias_ = info->dlpi_addr;
          return 1;  // the first object is the executable
        },
        this);
    const int fd = open("/proc/self/exe", O_RDONLY | O_CLOEXEC);
    if (fd < 0) return;
    struct stat st {};
    if (fstat(fd, &st) == 0 && st.st_size > 0) {
      size_ = static_cast<std::size_t>(st.st_size);
      map_ = mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    }
    close(fd);
    if (map_ == MAP_FAILED) return;
    const auto* base = static_cast<const unsigned char*>(map_);
    if (size_ < sizeof(Elf64_Ehdr)) return;
    Elf64_Ehdr eh;
    std::memcpy(&eh, base, sizeof eh);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64 ||
        eh.e_shentsize != sizeof(Elf64_Shdr) || eh.e_shoff > size_ ||
        eh.e_shnum > (size_ - eh.e_shoff) / sizeof(Elf64_Shdr))
      return;
    auto section = [&](std::size_t i) {
      Elf64_Shdr sh;
      std::memcpy(&sh, base + eh.e_shoff + i * sizeof(Elf64_Shdr), sizeof sh);
      return sh;
    };
    for (std::size_t i = 0; i < eh.e_shnum; ++i) {
      const Elf64_Shdr sh = section(i);
      if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= eh.e_shnum) continue;
      const Elf64_Shdr strtab = section(sh.sh_link);
      if (sh.sh_offset > size_ || sh.sh_size > size_ - sh.sh_offset ||
          strtab.sh_offset > size_ ||
          strtab.sh_size > size_ - strtab.sh_offset ||
          strtab.sh_size == 0)
        return;
      const char* strs = reinterpret_cast<const char*>(base + strtab.sh_offset);
      // The table must end in NUL for its names to be C strings.
      if (strs[strtab.sh_size - 1] != '\0') return;
      const std::size_t n = sh.sh_size / sizeof(Elf64_Sym);
      for (std::size_t k = 0; k < n; ++k) {
        Elf64_Sym s;
        std::memcpy(&s, base + sh.sh_offset + k * sizeof(Elf64_Sym), sizeof s);
        if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_value == 0 ||
            s.st_size == 0 || s.st_name >= strtab.sh_size)
          continue;
        syms_.push_back({s.st_value, s.st_value + s.st_size, strs + s.st_name});
      }
    }
    std::sort(syms_.begin(), syms_.end(),
              [](const Sym& a, const Sym& b) { return a.lo < b.lo; });
  }

  void* map_ = MAP_FAILED;
  std::size_t size_ = 0;
  std::uintptr_t bias_ = 0;
  std::vector<Sym> syms_;
};

std::string demangle(const char* name) {
  int status = 0;
  char* out = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  std::string s = status == 0 && out ? out : name;
  std::free(out);
  return s;
}

/// The first "ntier::<module>::" in `fn`, preferring one outside any
/// parameter list: a std::function thunk or a lambda is named after the
/// function that defined it, not after the request type in its signature.
std::string ntier_module(const std::string& fn) {
  static const std::string kNs = "ntier::";
  std::string first;
  int depth = 0;
  for (std::size_t i = 0; i < fn.size(); ++i) {
    if (fn[i] == '(') ++depth;
    if (fn[i] == ')') --depth;
    if (fn.compare(i, kNs.size(), kNs) != 0) continue;
    std::size_t b = i + kNs.size(), e = b;
    while (e < fn.size() &&
           (std::isalnum(static_cast<unsigned char>(fn[e])) || fn[e] == '_'))
      ++e;
    if (e == b || fn.compare(e, 2, "::") != 0) continue;
    if (depth == 0) return fn.substr(b, e - b);
    if (first.empty()) first = fn.substr(b, e - b);
  }
  return first;
}

std::string module_of(const std::string& fn, const char* object) {
  if (std::string m = ntier_module(fn); !m.empty()) return m;
  if (fn.find("perf::") != std::string::npos) return "bench";
  if (fn.find("std::") != std::string::npos ||
      fn.find("__gnu_cxx::") != std::string::npos ||
      (object != nullptr && std::strstr(object, "libstdc++") != nullptr))
    return "std";
  return "libc";
}

}  // namespace

bool supported() { return kSupported; }

void start() {
  if (!kSupported) return;
  g_count.store(0, std::memory_order_relaxed);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  set_timer(1000);  // the kernel rounds up to its tick
}

void stop() {
  if (!kSupported) return;
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
}

std::size_t samples() {
  return std::min(g_count.load(std::memory_order_relaxed), kCapacity);
}

Report resolve() {
  Report r;
  const ExeSymbols exe;
  struct Named {
    std::string name;
    std::string module;
  };
  std::unordered_map<const void*, Named> by_symbol;  // keyed by symbol start
  std::unordered_map<std::string, std::uint64_t> per_symbol;
  const std::size_t n = samples();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uintptr_t pc = g_pcs[i];
    const char* mangled = exe.find(pc);
    const char* object = nullptr;
    Dl_info info{};
    if (mangled == nullptr &&
        dladdr(reinterpret_cast<void*>(pc), &info) != 0) {
      mangled = info.dli_sname;
      object = info.dli_fname;
    }
    const void* key = mangled ? static_cast<const void*>(mangled)
                              : reinterpret_cast<const void*>(object);
    auto it = by_symbol.find(key);
    if (it == by_symbol.end()) {
      Named nm;
      nm.name = mangled ? demangle(mangled)
                        : std::string("?") + (object ? object : "");
      nm.module = module_of(nm.name, object);
      if (nm.name.size() > 160) nm.name.resize(160);
      it = by_symbol.emplace(key, std::move(nm)).first;
    }
    ++r.by_module[it->second.module];
    ++per_symbol[it->second.name];
  }
  r.top_symbols.assign(per_symbol.begin(), per_symbol.end());
  std::sort(r.top_symbols.begin(), r.top_symbols.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  if (r.top_symbols.size() > 40) r.top_symbols.resize(40);
  return r;
}

}  // namespace perf::profiler
