// Per-test scratch directories.
//
// gtest_discover_tests registers every test case as its own ctest entry,
// and `ctest -j` runs those processes in parallel, so a fixed file name
// under ::testing::TempDir() is state shared between concurrently running
// tests: one case overwrites or unlinks another's file mid-test. A TestDir
// is private to one test — named from the suite, the test and the process
// id — created empty on construction and removed, with everything in it,
// on destruction. Declare one in the test body, or as a fixture member so
// it lives from construction to teardown.

#ifndef IMAGEPROOF_TESTS_TEST_DIR_H_
#define IMAGEPROOF_TESTS_TEST_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

namespace imageproof::test_util {

class TestDir {
 public:
  TestDir() : path_(UniquePath()) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
    EXPECT_FALSE(ec) << "cannot create " << path_ << ": " << ec.message();
  }
  ~TestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  const std::string& path() const { return path_; }

  // Path of a file inside the directory (not created).
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

  // Creates an empty subdirectory (replacing any earlier one of that name)
  // and returns its path.
  std::string Dir(const std::string& name) const {
    const std::string dir = File(name);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    EXPECT_FALSE(ec) << "cannot create " << dir << ": " << ec.message();
    return dir;
  }

 private:
  static std::string UniquePath() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                             "." + info->name()
                                       : "no_test";
    // Parameterised names carry '/' and quotes.
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
          c != '_' && c != '-') {
        c = '_';
      }
    }
    std::string base = ::testing::TempDir();
    if (!base.empty() && base.back() != '/') base += '/';
    return base + name + "." + std::to_string(::getpid());
  }

  std::string path_;
};

}  // namespace imageproof::test_util

#endif  // IMAGEPROOF_TESTS_TEST_DIR_H_
