#include "profiler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

constexpr int kMaxFrames = 48;
constexpr std::size_t kCapacity = 16384;
// Requested CPU-time sampling interval. The kernel delivers at most one
// SIGPROF per scheduler tick, so the real rate is the lower of this and
// CONFIG_HZ.
constexpr int kIntervalUs = 1000;

/// Filled by the signal handler only; read by drain() while disarmed.
struct SampleBuffer {
  std::vector<void*> frames = std::vector<void*>(kCapacity * kMaxFrames);
  std::vector<int> depth = std::vector<int>(kCapacity);
  std::vector<std::uintptr_t> pc = std::vector<std::uintptr_t>(kCapacity);
  volatile std::size_t n = 0;
  volatile std::uint64_t dropped = 0;
};

SampleBuffer* g_buf = nullptr;
std::uint64_t g_times_armed = 0;

void on_sigprof(int, siginfo_t*, void* uctx) {
  SampleBuffer* b = g_buf;
  if (b == nullptr) return;
  const std::size_t i = b->n;
  if (i >= kCapacity) {
    b->dropped = b->dropped + 1;
    return;
  }
  const int saved_errno = errno;
  const auto* uc = static_cast<const ucontext_t*>(uctx);
  b->pc[i] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  b->depth[i] = backtrace(&b->frames[i * kMaxFrames], kMaxFrames);
  b->n = i + 1;
  errno = saved_errno;
}

std::string demangle(const char* name) {
  int status = 0;
  char* d = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status != 0 || d == nullptr) return name;
  std::string out(d);
  std::free(d);
  return out;
}

bool is_allocator_symbol(std::string_view raw, std::string_view demangled) {
  static constexpr std::string_view kC[] = {
      "malloc",        "free",          "calloc",       "realloc",
      "cfree",         "__libc_malloc", "__libc_free",  "__libc_calloc",
      "__libc_realloc", "_int_malloc",  "_int_free",    "malloc_consolidate"};
  for (std::string_view c : kC) {
    if (raw == c) return true;
  }
  return demangled.starts_with("operator new") ||
         demangled.starts_with("operator delete");
}

int main_program_bias(dl_phdr_info* info, std::size_t, void* out) {
  *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
  return 1;  // the first object listed is the executable itself
}

}  // namespace

int module_of_symbol(std::string_view s) {
  // Keep only the depth-0 text before the parameter list: template
  // arguments may name other modules, and a lambda's enclosing function
  // comes before its first '('.
  static constexpr std::string_view kAnon = "(anonymous namespace)";
  std::string head;
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (depth > 0) --depth;
    } else if (depth == 0) {
      if (c == '(') {
        if (s.substr(i).starts_with(kAnon)) {
          head.append("{anon}");  // no space: the scope stays one token
          i += kAnon.size() - 1;
          continue;
        }
        break;
      }
      head.push_back(c);
    }
  }
  const std::size_t sp = head.rfind(' ');
  std::string_view name(head);
  if (sp != std::string::npos) name.remove_prefix(sp + 1);
  static constexpr std::string_view kRoot = "rdmamon::";
  if (!name.starts_with(kRoot)) return -1;
  name.remove_prefix(kRoot.size());
  name = name.substr(0, name.find("::"));
  for (std::size_t m = 0; m < kModules.size(); ++m) {
    if (kModules[m] == name) return static_cast<int>(m);
  }
  return -1;
}

double ProfileCounts::share(std::string_view name) const {
  for (std::size_t m = 0; m < kModules.size(); ++m) {
    if (kModules[m] == name) {
      return total == 0 ? 0.0
                        : static_cast<double>(module[m]) /
                              static_cast<double>(total);
    }
  }
  return 0.0;
}

double ProfileCounts::other_share() const {
  return total == 0 ? 0.0
                    : static_cast<double>(other) / static_cast<double>(total);
}

/// Function symbols of the running executable, read from its .symtab
/// (which, unlike the dynamic symbol table, also lists internal-linkage
/// functions and coroutine bodies), plus a per-address verdict cache.
struct Profiler::Symbols {
  static constexpr int kAlloc = -2;

  struct Fn {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    std::uint32_t name = 0;
  };
  std::vector<Fn> fns;
  std::string strtab;
  std::uintptr_t bias = 0;
  std::unordered_map<std::uintptr_t, int> verdict;

  Symbols() {
    std::ifstream in("/proc/self/exe", std::ios::binary);
    const std::vector<char> img((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
    if (img.size() < sizeof(Elf64_Ehdr)) {
      throw std::runtime_error("profiler: cannot read the executable");
    }
    Elf64_Ehdr eh;
    std::memcpy(&eh, img.data(), sizeof eh);
    const std::size_t sh_end =
        eh.e_shoff + static_cast<std::size_t>(eh.e_shnum) * sizeof(Elf64_Shdr);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64 || sh_end > img.size()) {
      throw std::runtime_error("profiler: executable is not ELF64");
    }
    auto section = [&](std::size_t i) {
      Elf64_Shdr sh;
      std::memcpy(&sh, img.data() + eh.e_shoff + i * sizeof sh, sizeof sh);
      return sh;
    };
    for (std::size_t i = 0; i < eh.e_shnum; ++i) {
      const Elf64_Shdr sh = section(i);
      if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= eh.e_shnum) continue;
      const Elf64_Shdr st = section(sh.sh_link);
      if (sh.sh_offset + sh.sh_size > img.size() ||
          st.sh_offset + st.sh_size > img.size()) {
        throw std::runtime_error("profiler: truncated symbol table");
      }
      strtab.assign(img.data() + st.sh_offset, st.sh_size);
      for (std::size_t k = 0; k < sh.sh_size / sizeof(Elf64_Sym); ++k) {
        Elf64_Sym sym;
        std::memcpy(&sym, img.data() + sh.sh_offset + k * sizeof sym,
                    sizeof sym);
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 ||
            sym.st_size == 0 || sym.st_name >= strtab.size()) {
          continue;
        }
        fns.push_back({sym.st_value, sym.st_value + sym.st_size,
                       sym.st_name});
      }
    }
    if (fns.empty()) {
      throw std::runtime_error("profiler: executable has no symbol table");
    }
    std::sort(fns.begin(), fns.end(),
              [](const Fn& a, const Fn& b) { return a.lo < b.lo; });
    if (eh.e_type == ET_DYN) dl_iterate_phdr(main_program_bias, &bias);
  }

  /// kModules index of the function at `addr`, -1 when it is outside
  /// every module, kAlloc for an allocator function.
  int classify(std::uintptr_t addr) {
    auto [it, fresh] = verdict.try_emplace(addr, -1);
    if (!fresh) return it->second;
    const std::uintptr_t rel = addr - bias;
    auto fn = std::upper_bound(
        fns.begin(), fns.end(), rel,
        [](std::uintptr_t a, const Fn& f) { return a < f.lo; });
    const char* raw = nullptr;
    if (fn != fns.begin() && rel < std::prev(fn)->hi) {
      raw = strtab.c_str() + std::prev(fn)->name;
    } else {
      Dl_info info;
      if (dladdr(reinterpret_cast<void*>(addr), &info) != 0) {
        raw = info.dli_sname;
      }
    }
    if (raw != nullptr) {
      const std::string d = demangle(raw);
      it->second = is_allocator_symbol(raw, d) ? kAlloc : module_of_symbol(d);
    }
    return it->second;
  }
};

Profiler::Profiler() : syms_(std::make_unique<Symbols>()) {
  if (g_buf != nullptr) throw std::logic_error("profiler: already running");
  g_buf = new SampleBuffer;
  // The first backtrace() loads the unwinder; never let that happen
  // inside the signal handler.
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
}

Profiler::~Profiler() {
  disarm();
  signal(SIGPROF, SIG_IGN);
  delete g_buf;
  g_buf = nullptr;
}

void Profiler::arm() {
  ++g_times_armed;
  itimerval tv{};
  tv.it_interval.tv_usec = kIntervalUs;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

void Profiler::disarm() {
  itimerval tv{};
  setitimer(ITIMER_PROF, &tv, nullptr);
}

void Profiler::drain() {
  SampleBuffer& b = *g_buf;
  for (std::size_t i = 0; i < b.n; ++i) {
    void* const* f = &b.frames[i * kMaxFrames];
    const int depth = b.depth[i];
    // Skip the handler and signal trampoline: the unwinder reports the
    // interrupted frame with its exact pc.
    int first = 0;
    while (first < depth &&
           reinterpret_cast<std::uintptr_t>(f[first]) != b.pc[i]) {
      ++first;
    }
    if (first == depth) first = std::min(depth, 2);
    int module = -1;
    bool alloc = false;
    for (int k = first; k < depth && module < 0; ++k) {
      // Outer frames hold return addresses; step back into the call.
      const std::uintptr_t a =
          reinterpret_cast<std::uintptr_t>(f[k]) - (k == first ? 0 : 1);
      const int v = syms_->classify(a);
      if (v == Symbols::kAlloc) {
        alloc = true;
      } else {
        module = v;
      }
    }
    ++counts_.total;
    if (alloc) ++counts_.alloc;
    if (module >= 0) {
      ++counts_.module[static_cast<std::size_t>(module)];
    } else {
      ++counts_.other;
    }
  }
  counts_.dropped += b.dropped;
  b.n = 0;
  b.dropped = 0;
}

std::uint64_t Profiler::times_armed() { return g_times_armed; }

}  // namespace perfbench
