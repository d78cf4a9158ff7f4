// Model-based property test for LocalFs: a random operation stream is
// applied both to the real file system and to a trivially-correct
// reference model (nested maps); the observable state must agree at every
// step.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fs/local_fs.hpp"

namespace kosha::fs {
namespace {

/// Reference model: a tree of nodes.
struct ModelNode {
  FileType type = FileType::kDirectory;
  std::string data;  // file content / symlink target
  std::map<std::string, std::unique_ptr<ModelNode>> children;
};

class Model {
 public:
  Model() { root_ = std::make_unique<ModelNode>(); }

  ModelNode* resolve(const std::vector<std::string>& parts) {
    ModelNode* cur = root_.get();
    for (const auto& p : parts) {
      if (cur->type != FileType::kDirectory) return nullptr;
      const auto it = cur->children.find(p);
      if (it == cur->children.end()) return nullptr;
      cur = it->second.get();
    }
    return cur;
  }

  std::unique_ptr<ModelNode> root_;
};

/// Compare model and LocalFs subtree-by-subtree.
void expect_equal(LocalFs& fs, InodeId dir, const ModelNode& model, const std::string& where) {
  ASSERT_EQ(model.type, FileType::kDirectory) << where;
  const auto entries = fs.readdir(dir);
  ASSERT_TRUE(entries.ok()) << where;
  ASSERT_EQ(entries->size(), model.children.size()) << where;
  for (const auto& entry : entries.value()) {
    const auto it = model.children.find(entry.name);
    ASSERT_NE(it, model.children.end()) << where << "/" << entry.name;
    const ModelNode& child = *it->second;
    EXPECT_EQ(entry.type, child.type) << where << "/" << entry.name;
    if (child.type == FileType::kFile) {
      const auto data = fs.read(entry.inode, 0, 1 << 20);
      ASSERT_TRUE(data.ok());
      EXPECT_EQ(data.value(), child.data) << where << "/" << entry.name;
    } else if (child.type == FileType::kSymlink) {
      EXPECT_EQ(fs.readlink(entry.inode).value(), child.data);
    } else {
      expect_equal(fs, entry.inode, child, where + "/" + entry.name);
    }
  }
}

class LocalFsModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalFsModel, RandomOperationsMatchReference) {
  LocalFs fs;
  Model model;
  Rng rng(GetParam());

  // Keep a pool of directory paths (as component vectors) to operate in.
  std::vector<std::vector<std::string>> dirs{{}};
  auto random_dir = [&]() -> std::vector<std::string>& {
    return dirs[rng.next_below(dirs.size())];
  };
  auto fs_dir = [&](const std::vector<std::string>& parts) {
    InodeId cur = fs.root();
    for (const auto& p : parts) {
      const auto next = fs.lookup(cur, p);
      if (!next.ok()) return kInvalidInode;
      cur = next.value();
    }
    return cur;
  };

  for (int op = 0; op < 600; ++op) {
    auto& parts = random_dir();
    ModelNode* mdir = model.resolve(parts);
    const InodeId fdir = fs_dir(parts);
    // Skip stale pool entries (directory removed, or replaced by a file).
    if (mdir == nullptr || mdir->type != FileType::kDirectory || fdir == kInvalidInode) {
      continue;
    }
    const std::string name = std::string("n").append(std::to_string(rng.next_below(5)));
    const unsigned action = static_cast<unsigned>(rng.next_below(8));

    switch (action) {
      case 0: {  // create file
        const auto result = fs.create(fdir, name);
        const bool model_ok = mdir->children.count(name) == 0;
        EXPECT_EQ(result.ok(), model_ok);
        if (result.ok()) {
          auto node = std::make_unique<ModelNode>();
          node->type = FileType::kFile;
          mdir->children.emplace(name, std::move(node));
        }
        break;
      }
      case 1: {  // mkdir
        const auto result = fs.mkdir(fdir, name);
        const bool model_ok = mdir->children.count(name) == 0;
        EXPECT_EQ(result.ok(), model_ok);
        if (result.ok()) {
          mdir->children.emplace(name, std::make_unique<ModelNode>());
          auto path = parts;
          path.push_back(name);
          dirs.push_back(std::move(path));
        }
        break;
      }
      case 2: {  // symlink
        const auto result = fs.symlink(fdir, name, "target" + name);
        const bool model_ok = mdir->children.count(name) == 0;
        EXPECT_EQ(result.ok(), model_ok);
        if (result.ok()) {
          auto node = std::make_unique<ModelNode>();
          node->type = FileType::kSymlink;
          node->data = "target" + name;
          mdir->children.emplace(name, std::move(node));
        }
        break;
      }
      case 3: {  // write to a file
        const auto it = mdir->children.find(name);
        const bool is_file = it != mdir->children.end() && it->second->type == FileType::kFile;
        const auto inode = fs.lookup(fdir, name);
        if (!is_file || !inode.ok()) break;
        const std::uint64_t offset = rng.next_below(20);
        const std::string data = rng.next_name(1 + rng.next_below(30));
        EXPECT_TRUE(fs.write(*inode, offset, data).ok());
        auto& content = it->second->data;
        if (content.size() < offset + data.size()) content.resize(offset + data.size(), '\0');
        std::copy(data.begin(), data.end(),
                  content.begin() + static_cast<std::ptrdiff_t>(offset));
        break;
      }
      case 4: {  // truncate
        const auto it = mdir->children.find(name);
        const bool is_file = it != mdir->children.end() && it->second->type == FileType::kFile;
        const auto inode = fs.lookup(fdir, name);
        if (!is_file || !inode.ok()) break;
        const std::uint64_t size = rng.next_below(40);
        EXPECT_TRUE(fs.truncate(*inode, size).ok());
        it->second->data.resize(size, '\0');
        break;
      }
      case 5: {  // remove (file or symlink)
        const auto result = fs.remove(fdir, name);
        const auto it = mdir->children.find(name);
        const bool model_ok =
            it != mdir->children.end() && it->second->type != FileType::kDirectory;
        EXPECT_EQ(result.ok(), model_ok) << name;
        if (result.ok()) mdir->children.erase(it);
        break;
      }
      case 6: {  // rmdir (only empty)
        const auto result = fs.rmdir(fdir, name);
        const auto it = mdir->children.find(name);
        const bool model_ok = it != mdir->children.end() &&
                              it->second->type == FileType::kDirectory &&
                              it->second->children.empty();
        EXPECT_EQ(result.ok(), model_ok) << name;
        if (result.ok()) mdir->children.erase(it);
        break;
      }
      case 7: {  // rename within the same directory
        const std::string to = std::string("n").append(std::to_string(rng.next_below(5)));
        const auto result = fs.rename(fdir, name, fdir, to);
        const auto src = mdir->children.find(name);
        bool model_ok = src != mdir->children.end();
        if (model_ok && name != to) {
          const auto dst = mdir->children.find(to);
          if (dst != mdir->children.end() && dst->second->type == FileType::kDirectory) {
            model_ok = false;  // refuse replacing a directory
          }
        }
        EXPECT_EQ(result.ok(), model_ok) << name << "->" << to;
        if (result.ok() && name != to) {
          auto node = std::move(src->second);
          mdir->children.erase(src);
          mdir->children.erase(to);
          mdir->children.emplace(to, std::move(node));
        }
        break;
      }
      default:
        break;
    }

    if (op % 100 == 99) {
      expect_equal(fs, fs.root(), *model.root_, "");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_equal(fs, fs.root(), *model.root_, "");

  // Capacity accounting must equal the model's total content bytes.
  std::uint64_t expected_bytes = 0;
  std::vector<const ModelNode*> stack{model.root_.get()};
  while (!stack.empty()) {
    const ModelNode* node = stack.back();
    stack.pop_back();
    if (node->type == FileType::kFile) expected_bytes += node->data.size();
    for (const auto& [name, child] : node->children) {
      (void)name;
      stack.push_back(child.get());
    }
  }
  EXPECT_EQ(fs.used_bytes(), expected_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalFsModel,
                         ::testing::Values(1, 7, 42, 99, 12345, 777, 31337));

}  // namespace
}  // namespace kosha::fs
