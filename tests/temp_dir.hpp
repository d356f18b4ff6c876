#pragma once

// A gtest fixture that gives each test a private scratch directory.
//
// gtest_discover_tests runs every test as its own process, and
// `ctest -j` runs those processes in parallel, so two tests writing
// one fixed path race. The directory is named from the test and the
// pid, created in SetUp and removed with its contents in TearDown.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace tfx_test {

class temp_dir_test : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("tfx_") + info->test_suite_name() + "." +
                       info->name() + "." + std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// `name` inside this test's directory.
  [[nodiscard]] std::string temp_path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace tfx_test
