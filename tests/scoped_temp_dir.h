// Hermetic scratch directories for tests that write files.
//
// ScopedTempDir creates TempDir()/econcast_<Suite>_<Test>_<pid>_<n>, unique
// per process (pid) and per instance (n), so concurrent test runs never
// share a directory, and removes it with everything in it when the guard
// goes out of scope.
#ifndef ECONCAST_TESTS_SCOPED_TEMP_DIR_H
#define ECONCAST_TESTS_SCOPED_TEMP_DIR_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace econcast::testing_support {

class ScopedTempDir {
 public:
  ScopedTempDir() {
    static std::atomic<unsigned> counter{0};
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::path(::testing::TempDir()) /
            ("econcast_" + std::string(info->test_suite_name()) + "_" +
             info->name() + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;  // best effort: never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace econcast::testing_support

#endif  // ECONCAST_TESTS_SCOPED_TEMP_DIR_H
