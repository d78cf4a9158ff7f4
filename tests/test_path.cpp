// Path utility unit + property tests.

#include <gtest/gtest.h>

#include "common/path.hpp"
#include "common/rng.hpp"

namespace kosha {
namespace {

TEST(Path, SplitBasics) {
  EXPECT_EQ(split_path("/a/b/c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_path("/").empty());
  EXPECT_TRUE(split_path("").empty());
  EXPECT_EQ(split_path("//a///b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_path("relative/x"), (std::vector<std::string>{"relative", "x"}));
}

TEST(Path, JoinBasics) {
  EXPECT_EQ(join_path({}), "/");
  EXPECT_EQ(join_path({"a"}), "/a");
  EXPECT_EQ(join_path({"a", "b"}), "/a/b");
}

TEST(Path, ChildAppends) {
  EXPECT_EQ(path_child("/", "a"), "/a");
  EXPECT_EQ(path_child("/a", "b"), "/a/b");
  EXPECT_EQ(path_child("/a/", "b"), "/a/b");
}

TEST(Path, ParentWalksUp) {
  EXPECT_EQ(path_parent("/a/b"), "/a");
  EXPECT_EQ(path_parent("/a"), "/");
  EXPECT_EQ(path_parent("/"), "/");
}

TEST(Path, Basename) {
  EXPECT_EQ(path_basename("/a/b"), "b");
  EXPECT_EQ(path_basename("/a"), "a");
  EXPECT_EQ(path_basename("/"), "");
}

TEST(Path, NormalizeCollapsesAndResolvesDot) {
  EXPECT_EQ(normalize_path("//a/./b//"), "/a/b");
  EXPECT_EQ(normalize_path("/."), "/");
  EXPECT_EQ(normalize_path(""), "/");
}

TEST(Path, NormalizeRejectsDotDot) {
  EXPECT_EQ(normalize_path("/a/../b"), "");
}

TEST(Path, Depth) {
  EXPECT_EQ(path_depth("/"), 0u);
  EXPECT_EQ(path_depth("/a"), 1u);
  EXPECT_EQ(path_depth("/a/b/c"), 3u);
}

TEST(Path, IsWithin) {
  EXPECT_TRUE(path_is_within("/a/b/c", "/a"));
  EXPECT_TRUE(path_is_within("/a", "/a"));
  EXPECT_TRUE(path_is_within("/a", "/"));
  EXPECT_FALSE(path_is_within("/ab", "/a"));
  EXPECT_FALSE(path_is_within("/a", "/a/b"));
}

TEST(Path, IsWithinEdgeCases) {
  // Repeated and trailing separators collapse on both sides.
  EXPECT_TRUE(path_is_within("//a//b/", "/a/"));
  EXPECT_TRUE(path_is_within("/a/b", "//a//b//"));
  // The empty ancestor, like "/", contains everything.
  EXPECT_TRUE(path_is_within("/a", ""));
  EXPECT_TRUE(path_is_within("", ""));
  EXPECT_TRUE(path_is_within("", "/"));
  EXPECT_FALSE(path_is_within("", "/a"));
  EXPECT_FALSE(path_is_within("/", "/a"));
  // Relative inputs compare by components, like absolute ones.
  EXPECT_TRUE(path_is_within("a/b", "/a"));
  EXPECT_TRUE(path_is_within("/a/b", "a"));
  EXPECT_FALSE(path_is_within("a", "a/b"));
  // A byte prefix that is not a whole component does not contain.
  EXPECT_FALSE(path_is_within("/a/bc", "/a/b"));
  EXPECT_FALSE(path_is_within("/a/b", "/a/bc"));
  EXPECT_FALSE(path_is_within("/abc/d", "/ab"));
}

/// `components` written with 1-3 separators before each component and,
/// sometimes, trailing ones: the non-canonical spellings the helpers must
/// collapse. Sometimes relative (no leading separator).
std::string messy_path(Rng& rng, const std::vector<std::string>& components) {
  std::string out;
  for (std::size_t i = 0; i < components.size(); ++i) {
    const std::size_t seps = (i == 0 && rng.next_below(4) == 0) ? 0 : 1 + rng.next_below(3);
    out.append(seps, '/');
    out += components[i];
  }
  out.append(rng.next_below(3), '/');
  return out;
}

/// Reference for path_is_within: split both paths, compare the lists.
bool split_is_within(std::string_view path, std::string_view ancestor) {
  const auto p = split_path(path);
  const auto a = split_path(ancestor);
  if (a.size() > p.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (p[i] != a[i]) return false;
  }
  return true;
}

class PathProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathProperty, SplitJoinRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::string> parts;
    const std::size_t depth = rng.next_below(6);
    for (std::size_t i = 0; i < depth; ++i) parts.push_back(rng.next_name(1 + rng.next_below(10)));
    const std::string joined = join_path(parts);
    EXPECT_EQ(split_path(joined), parts);
    EXPECT_EQ(path_depth(joined), parts.size());
    EXPECT_EQ(normalize_path(joined), joined);

    // The single-scan helpers give what the component list gives, for the
    // canonical spelling and for a messy one.
    std::vector<std::string> parent_parts = parts;
    if (!parent_parts.empty()) parent_parts.pop_back();
    const std::string basename = parts.empty() ? std::string{} : parts.back();
    for (const std::string& path : {joined, messy_path(rng, parts)}) {
      EXPECT_EQ(split_path(path), parts) << path;
      EXPECT_EQ(path_depth(path), parts.size()) << path;
      EXPECT_EQ(path_parent(path), join_path(parent_parts)) << path;
      EXPECT_EQ(path_basename(path), basename) << path;
    }
  }
}

TEST_P(PathProperty, IsWithinMatchesSplitCompare) {
  // Components from a tiny alphabet where one is a byte prefix of another,
  // so partial-component matches come up often.
  static const std::vector<std::string> kAlphabet = {"a", "ab", "b", "a.b"};
  Rng rng(GetParam());
  const auto random_parts = [&] {
    std::vector<std::string> parts;
    const std::size_t depth = rng.next_below(5);
    for (std::size_t i = 0; i < depth; ++i) {
      parts.push_back(kAlphabet[rng.next_below(kAlphabet.size())]);
    }
    return parts;
  };
  int within = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto path_parts = random_parts();
    // Half the ancestors are a prefix of the path, so both answers show up.
    std::vector<std::string> ancestor_parts = random_parts();
    if (rng.next_below(2) == 0) {
      ancestor_parts.assign(path_parts.begin(),
                            path_parts.begin() + static_cast<std::ptrdiff_t>(
                                                     rng.next_below(path_parts.size() + 1)));
    }
    const std::string path = messy_path(rng, path_parts);
    const std::string ancestor = messy_path(rng, ancestor_parts);
    const bool expected = split_is_within(path, ancestor);
    EXPECT_EQ(path_is_within(path, ancestor), expected) << path << " within " << ancestor;
    if (expected) ++within;
  }
  EXPECT_GT(within, 500);
  EXPECT_LT(within, 1800);
}

TEST_P(PathProperty, ParentChildInverse) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::string> parts;
    const std::size_t depth = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < depth; ++i) parts.push_back(rng.next_name(4));
    const std::string path = join_path(parts);
    EXPECT_EQ(path_child(path_parent(path), path_basename(path)), path);
    EXPECT_TRUE(path_is_within(path, path_parent(path)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathProperty, ::testing::Values(11, 12, 13));

}  // namespace
}  // namespace kosha
