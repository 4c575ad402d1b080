// Serving benchmark entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--git-sha SHA]
//   perfbench --short
//
// A run prints its log, a fingerprint line and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ledger. --short
// runs every workload in both modes at tiny size plus the oracle self-test
// and exits non-zero if any check fails. See perfbench/README.md.
#include <cpuid.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

std::string CpuModel() {
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  while (!s.empty() && s.back() == ' ') s.pop_back();
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  return s;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void PrintFingerprint(const perfbench::RunResult& r, const std::string& sha) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "fingerprint: {\"nproc\": %ld, \"cpu_model\": %s, \"threads\": %zu, "
      "\"threads_over_cpus\": %.3f, \"pinning\": \"none\", "
      "\"build_type\": %s, \"git_sha\": %s}\n",
      nproc, JsonString(CpuModel()).c_str(), r.threads,
      static_cast<double>(r.threads) / static_cast<double>(nproc),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(sha).c_str());
}

void PrintResult(const perfbench::RunResult& r) {
  for (const auto& m : r.metrics) {
    std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("attempted %llu packets, failed %llu (shed + oracle rejections)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(r.metrics[i].value) ? r.metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i != 0) json += ", ";
    json += JsonString(r.metrics[i].name) + ": {\"value\": " + num +
            ", \"unit\": " + JsonString(r.metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA]\n       perfbench --short\n");
  return 2;
}

int ShortMode() {
  bool ok = perfbench::OracleRejectsAlteredDecision();
  for (const auto& name : perfbench::WorkloadNames()) {
    for (const bool trace : {false, true}) {
      perfbench::RunOptions o;
      o.workload = name;
      o.seconds = 0.5;
      o.trace = trace;
      o.short_mode = true;
      std::printf("== %s trace=%d\n", name.c_str(), trace ? 1 : 0);
      const perfbench::RunResult r = perfbench::RunWorkload(o);
      PrintResult(r);
      ok = ok && r.correct && r.failed == 0;
    }
  }
  std::printf("short mode: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string sha = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--short") return ShortMode();
      if (i + 1 >= argc) return Usage();
      const std::string v = argv[++i];
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = v == "1";
      } else if (a == "--git-sha") {
        sha = v;
      } else {
        return Usage();
      }
    }
    if (!have_workload || !(o.seconds > 0.0)) return Usage();
    const perfbench::RunResult r = perfbench::RunWorkload(o);
    PrintFingerprint(r, sha);
    PrintResult(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
