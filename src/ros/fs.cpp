#include "ros/fs.hpp"

#include "support/strings.hpp"

namespace mv::ros {

FileSystem::FileSystem() : root_(std::make_unique<Node>()) {
  root_->is_dir = true;
  root_->ino = 1;
}

std::string FileSystem::normalize(const std::string& cwd,
                                  const std::string& path) {
  const std::string joined =
      (!path.empty() && path.front() == '/') ? path : cwd + "/" + path;
  std::vector<std::string> parts;
  for (const std::string& part : split(joined, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
      continue;
    }
    parts.push_back(part);
  }
  std::string out = "/";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out += parts[i];
    if (i + 1 < parts.size()) out += "/";
  }
  return out;
}

Result<FileSystem::Node*> FileSystem::resolve(const std::string& cwd,
                                              const std::string& path,
                                              bool create_file,
                                              bool truncate) {
  const std::string norm = normalize(cwd, path);
  Node* node = root_.get();
  const std::vector<std::string> parts = split(norm.substr(1), '/');
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    if (part.empty()) continue;  // root itself ("/")
    if (!node->is_dir) return err(Err::kNotDir, part);
    auto it = node->children.find(part);
    if (it == node->children.end()) {
      const bool last = i + 1 == parts.size();
      if (!last || !create_file) return err(Err::kNoEnt, norm);
      auto child = std::make_unique<Node>();
      child->ino = next_ino_++;
      it = node->children.emplace(part, std::move(child)).first;
    }
    node = it->second.get();
  }
  if (truncate && !node->is_dir) node->data.clear();
  return node;
}

Result<const FileSystem::Node*> FileSystem::resolve(
    const std::string& cwd, const std::string& path) const {
  auto r = const_cast<FileSystem*>(this)->resolve(cwd, path, false, false);
  if (!r) return r.status();
  return static_cast<const Node*>(*r);
}

Status FileSystem::mkdir(const std::string& cwd, const std::string& path) {
  const std::string norm = normalize(cwd, path);
  const auto slash = norm.find_last_of('/');
  const std::string parent = slash == 0 ? "/" : norm.substr(0, slash);
  const std::string name = norm.substr(slash + 1);
  if (name.empty()) return err(Err::kInval, "mkdir /");
  MV_ASSIGN_OR_RETURN(Node* const dir, resolve("/", parent, false, false));
  if (!dir->is_dir) return err(Err::kNotDir, parent);
  if (dir->children.contains(name)) return err(Err::kExist, norm);
  auto child = std::make_unique<Node>();
  child->is_dir = true;
  child->ino = next_ino_++;
  dir->children.emplace(name, std::move(child));
  return Status::ok();
}

Status FileSystem::unlink(const std::string& cwd, const std::string& path) {
  const std::string norm = normalize(cwd, path);
  const auto slash = norm.find_last_of('/');
  const std::string parent = slash == 0 ? "/" : norm.substr(0, slash);
  const std::string name = norm.substr(slash + 1);
  MV_ASSIGN_OR_RETURN(Node* const dir, resolve("/", parent, false, false));
  const auto it = dir->children.find(name);
  if (it == dir->children.end()) return err(Err::kNoEnt, norm);
  if (it->second->is_dir) return err(Err::kIsDir, norm);
  dir->children.erase(it);
  return Status::ok();
}

Result<Stat> FileSystem::stat(const std::string& cwd,
                              const std::string& path) const {
  MV_ASSIGN_OR_RETURN(const Node* const node, resolve(cwd, path));
  Stat st;
  st.size = node->data.size();
  st.mode = node->is_dir ? 2 : 1;
  st.ino = node->ino;
  return st;
}

bool FileSystem::exists(const std::string& cwd, const std::string& path) const {
  return resolve(cwd, path).is_ok();
}

Status FileSystem::write_file(const std::string& path,
                              const std::string& data) {
  MV_ASSIGN_OR_RETURN(Node* const node, resolve("/", path, true, true));
  if (node->is_dir) return err(Err::kIsDir, path);
  node->data.assign(data.begin(), data.end());
  return Status::ok();
}

Result<std::string> FileSystem::read_file(const std::string& path) const {
  MV_ASSIGN_OR_RETURN(const Node* const node, resolve("/", path));
  if (node->is_dir) return err(Err::kIsDir, path);
  return std::string(node->data.begin(), node->data.end());
}

FdTable::FdTable() {
  files_[0] = OpenFile{OpenFile::Kind::kStdIn, nullptr, 0, kORdOnly};
  files_[1] = OpenFile{OpenFile::Kind::kStdOut, nullptr, 0, kOWrOnly};
  files_[2] = OpenFile{OpenFile::Kind::kStdErr, nullptr, 0, kOWrOnly};
}

Result<int> FdTable::install(OpenFile file) {
  if (files_.size() >= kMaxFds) return err(Err::kMFile, "fd table full");
  // Lowest-unused-fd semantics, like Linux.
  int fd = 0;
  while (files_.contains(fd)) ++fd;
  files_[fd] = file;
  return fd;
}

Result<OpenFile*> FdTable::get(int fd) {
  const auto it = files_.find(fd);
  if (it == files_.end()) return err(Err::kBadFd);
  return &it->second;
}

Status FdTable::close(int fd) {
  return files_.erase(fd) != 0 ? Status::ok() : err(Err::kBadFd);
}

Result<int> FdTable::dup(int fd) {
  MV_ASSIGN_OR_RETURN(OpenFile* const file, get(fd));
  return install(*file);
}

}  // namespace mv::ros
