// Repository benchmark program: runs one workload against the library's
// public API and prints its metrics. Normally launched by run.py, which
// builds this program first and checks its output against BENCHMARK.json.
//
//   perfbench --workload <city-cold|paper-cell|stream-saturated>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--toy] [--work-dir DIR] [--trace-out FILE] [--git-rev REV]
//
// Output: deterministic digest lines, one line per metric (with its
// sample count and tail percentile), a provenance line, and last a JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit code 0 only
// when every output check passed.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

[[nodiscard]] std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const std::size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

[[nodiscard]] std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[nodiscard]] std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

[[nodiscard]] bool parse_args(int argc, char** argv, Options& options,
                              std::string& git_rev) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      options.toy = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << flag << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--git-rev") {
        git_rev = value;
      } else {
        std::cerr << "perfbench: unknown flag " << flag << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value for " << flag << ": " << value << "\n";
      return false;
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    std::cerr << "perfbench: --workload and a positive --seconds are "
                 "required\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/work";
  std::string git_rev = "unknown";
  if (!parse_args(argc, argv, options, git_rev)) return 2;
  std::filesystem::create_directories(options.work_dir);

  Outcome outcome;
  try {
    outcome = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      outcome.problems.push_back("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }

  std::uint64_t digest_hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const std::string& line : outcome.digest) {
    std::cout << "digest " << options.workload << " " << line << "\n";
    for (const char c : line + "\n") {
      digest_hash ^= static_cast<unsigned char>(c);
      digest_hash *= 0x100000001b3ULL;
    }
  }
  char hash_text[17];
  std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                static_cast<unsigned long long>(digest_hash));
  std::cout << "digest " << options.workload << " fnv1a64=" << hash_text
            << " lines=" << outcome.digest.size() << "\n";

  std::ostringstream sample_info;
  for (const Metric& m : outcome.metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit;
    if (m.samples > 0) {
      std::cout << " (p" << m.percentile << ", n=" << m.samples << ")";
      sample_info << (sample_info.tellp() > 0 ? ", " : "")
                  << json_string(m.name) << ": {\"n\": " << m.samples
                  << ", \"percentile\": " << json_number(m.percentile) << "}";
    }
    std::cout << "\n";
  }

  std::cout << "{\"provenance\": {\"workload\": "
            << json_string(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << json_number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"toy\": " << (options.toy ? "true" : "false")
            << ", \"shard_threads\": " << outcome.threads
            << ", \"passes\": " << outcome.passes
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": " << json_string(cpu_model())
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"git_rev\": " << json_string(git_rev)
            << ", \"digest\": " << json_string(hash_text)
            << ", \"samples\": {" << sample_info.str() << "}}}\n";

  if (outcome.attempted == 0) {
    outcome.problems.push_back("no operation was attempted");
  }
  const bool correct = outcome.problems.empty() && outcome.failed == 0;
  for (const std::string& problem : outcome.problems) {
    std::cout << "check failed: " << problem << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, outcome.attempted)
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::cout << (i > 0 ? ", " : "") << json_string(m.name)
              << ": {\"value\": " << json_number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
