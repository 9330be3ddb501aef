// Per-process scratch directories for tests that touch the filesystem.
//
// gtest_discover_tests registers every test case as its own ctest entry, so
// `ctest -j` runs the cases of one suite in concurrent processes. A fixed
// path under testing::TempDir() is then shared by all of them, and a process
// that wipes it to start clean deletes files another one is still reading.
// scratch_root() keys the directory on the process id plus the running
// suite and case, so no two processes (and no two cases) ever share one.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace tsajs::test_support {

/// <TempDir>/tsajs-<pid>-<suite>-<case> for the running test, or
/// <TempDir>/tsajs-<pid>-<suite> outside a test body (SetUpTestSuite).
/// Not created here; see fresh_scratch_dir.
inline std::filesystem::path scratch_root() {
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  std::string name = "tsajs-" + std::to_string(::getpid());
  if (const ::testing::TestInfo* info = unit.current_test_info()) {
    name += '-' + std::string(info->test_suite_name()) + '-' + info->name();
  } else if (const ::testing::TestSuite* suite = unit.current_test_suite()) {
    name += '-' + std::string(suite->name());
  }
  // Parameterized names carry '/'; keep the root one directory deep.
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::path(::testing::TempDir()) / name;
}

/// Empty directory `name` under scratch_root(), wiped first if an earlier
/// call left one behind. Returns its path.
inline std::string fresh_scratch_dir(const std::string& name) {
  const std::filesystem::path dir = scratch_root() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace tsajs::test_support
