// Host and build facts, and the peak-RSS probe.
#include <malloc.h>
#include <sched.h>

#include <fstream>
#include <sstream>
#include <string>

#include "e2e.hpp"
#include "parallel/thread_pool.hpp"

namespace redund::e2e {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_list(const cpu_set_t& mask) {
  std::string out;
  int cpu = 0;
  while (cpu < CPU_SETSIZE) {
    if (!CPU_ISSET(cpu, &mask)) {
      ++cpu;
      continue;
    }
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &mask)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
    if (last > cpu) {
      out += '-';
      out += std::to_string(last);
    }
    cpu = last + 1;
  }
  return out;
}

/// Size of the unified cache at `level` for CPU 0, as sysfs spells it.
std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (read_line(dir + "/level") == std::to_string(level) &&
        read_line(dir + "/type") == "Unified") {
      return read_line(dir + "/size");
    }
  }
  return "unknown";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

HostFacts host_facts() {
  HostFacts facts;
  facts.nproc = static_cast<std::int64_t>(parallel::available_parallelism());
  cpu_set_t mask;
  CPU_ZERO(&mask);
  facts.affinity = sched_getaffinity(0, sizeof(mask), &mask) == 0
                       ? cpu_list(mask)
                       : "unknown";
  facts.cpu_model = cpu_model();
  facts.l2 = cache_size(2);
  facts.l3 = cache_size(3);
#if defined(__clang__)
  facts.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  facts.compiler = "gcc " __VERSION__;
#else
  facts.compiler = "unknown";
#endif
  facts.git_rev = REDUND_E2E_GIT_REV;
#ifdef NDEBUG
  facts.ndebug = true;
#endif
#if defined(REDUND_ENABLE_INVARIANTS) && REDUND_ENABLE_INVARIANTS
  facts.invariants = true;
#endif
#if defined(REDUND_SIMD_ENABLED) && REDUND_SIMD_ENABLED
  facts.simd = true;
#endif
#ifdef __OPTIMIZE__
  facts.optimized = true;
#endif
  return facts;
}

std::int64_t thread_budget() {
  return std::min<std::int64_t>(
      4, static_cast<std::int64_t>(parallel::available_parallelism()));
}

void reset_peak_rss() {
  // Hand back what earlier workloads left in the (untrimmed) heap, then
  // reset VmHWM to the current RSS ("5", Linux >= 4.0; elsewhere the
  // write fails and the peak stays process-wide).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace redund::e2e
