#pragma once

// In-memory filesystem for the ROS. Enough surface for a dynamic language
// runtime: hierarchical directories, regular files, fds with offsets, and the
// standard stream fds wired to capture buffers so tests can assert on
// program output.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ros/types.hpp"
#include "support/result.hpp"

namespace mv::ros {

class FileSystem {
 public:
  FileSystem();

  // Path-level operations. Paths are absolute or relative to `cwd`.
  Status mkdir(const std::string& cwd, const std::string& path);
  Status unlink(const std::string& cwd, const std::string& path);
  Result<Stat> stat(const std::string& cwd, const std::string& path) const;
  [[nodiscard]] bool exists(const std::string& cwd,
                            const std::string& path) const;

  // Whole-file convenience (host-side helpers for tests and loaders).
  Status write_file(const std::string& path, const std::string& data);
  Result<std::string> read_file(const std::string& path) const;

  // Node-level operations used by the fd layer.
  struct Node {
    bool is_dir = false;
    std::uint64_t ino = 0;
    std::vector<std::uint8_t> data;            // files
    std::map<std::string, std::unique_ptr<Node>> children;  // dirs
  };

  Result<Node*> resolve(const std::string& cwd, const std::string& path,
                        bool create_file, bool truncate);
  Result<const Node*> resolve(const std::string& cwd,
                              const std::string& path) const;

  [[nodiscard]] static std::string normalize(const std::string& cwd,
                                             const std::string& path);

 private:
  std::unique_ptr<Node> root_;
  std::uint64_t next_ino_ = 2;
};

// A process's open-file description.
struct OpenFile {
  enum class Kind { kFile, kStdIn, kStdOut, kStdErr };
  Kind kind = Kind::kFile;
  FileSystem::Node* node = nullptr;
  std::uint64_t offset = 0;
  int flags = 0;
};

class FdTable {
 public:
  FdTable();

  Result<int> install(OpenFile file);
  Result<OpenFile*> get(int fd);
  Status close(int fd);
  Result<int> dup(int fd);

 private:
  static constexpr int kMaxFds = 256;
  std::map<int, OpenFile> files_;
};

}  // namespace mv::ros
