// Custom main for the torture binary: adds a `--filter <substring>` flag
// (documented in EXPERIMENTS.md) so a developer iterating on one queue can
// run just its slice of the matrix without memorizing gtest filter syntax:
//
//   ./evq_torture --filter comb-cas        # every profile for one queue
//   ./evq_torture --filter sc_storm        # every queue under one profile
//
// The substring is matched against full test names with wildcards on both
// sides (gtest test names use '_' where registry names use '-'; both spellings
// are accepted — '-' is translated). All other arguments, including native
// --gtest_* flags, pass through to googletest untouched; an explicit
// --gtest_filter wins over --filter because it is applied later by
// InitGoogleTest.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

namespace {

/// Extracts `--filter foo` / `--filter=foo` from argv (compacting it) and
/// returns the substring, or "" when absent.
std::string extract_filter(int* argc, char** argv) {
  std::string filter;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < *argc) {
      filter = argv[++i];
    } else if (std::strncmp(argv[i], "--filter=", 9) == 0) {
      filter = argv[i] + 9;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return filter;
}

}  // namespace

int main(int argc, char** argv) {
  std::string filter = extract_filter(&argc, argv);
  if (!filter.empty()) {
    for (char& c : filter) {
      if (c == '-') {
        c = '_';  // registry names appear underscored in test names
      }
    }
    ::testing::GTEST_FLAG(filter) = "*" + filter + "*";
    std::fprintf(stderr, "[torture] --filter %s -> --gtest_filter=%s\n", filter.c_str(),
                 ::testing::GTEST_FLAG(filter).c_str());
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
