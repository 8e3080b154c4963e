#include "timing_fs.h"

namespace perfbench {

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view BaseName(std::string_view path) {
  const size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

}  // namespace

const char* FileKindName(FileKind kind) {
  switch (kind) {
    case FileKind::kReq:
      return "req";
    case FileKind::kSnap:
      return "snap";
    case FileKind::kRes:
      return "res";
    case FileKind::kTemp:
      return "temp";
    case FileKind::kOther:
      return "other";
  }
  return "other";
}

FileKind KindOfPath(std::string_view path) {
  const std::string_view name = BaseName(path);
  if (awr::storage::IsTempFileName(name)) return FileKind::kTemp;
  if (EndsWith(name, ".req")) return FileKind::kReq;
  if (EndsWith(name, ".snap")) return FileKind::kSnap;
  if (EndsWith(name, ".res")) return FileKind::kRes;
  return FileKind::kOther;
}

std::string RequestIdOfPath(std::string_view path) {
  std::string_view name = BaseName(path);
  const size_t dot = name.find('.');
  if (dot == std::string_view::npos || KindOfPath(path) == FileKind::kOther) {
    return "";
  }
  return std::string(name.substr(0, dot));
}

template <typename Call>
auto TimingFs::Timed(const char* op, const std::string& path, Call call) {
  const std::string id = RequestIdOfPath(path);
  Span span;
  span.name = std::string("fs.") + op + "." + FileKindName(KindOfPath(path));
  span.parent = id.empty() ? -1 : tracer_->SpanOfRequest(id);
  span.request_id = id;
  span.start = Clock::now();
  auto result = call();
  span.end = Clock::now();
  tracer_->Add(std::move(span));
  return result;
}

awr::Status TimingFs::WriteFileAtomic(const std::string& path,
                                      const std::vector<uint8_t>& bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    written_[static_cast<int>(KindOfPath(path))] += bytes.size();
  }
  return Timed("write", path,
               [&] { return base_->WriteFileAtomic(path, bytes); });
}

awr::Result<std::vector<uint8_t>> TimingFs::ReadFile(const std::string& path) {
  return Timed("read", path, [&] { return base_->ReadFile(path); });
}

awr::Status TimingFs::Rename(const std::string& from, const std::string& to) {
  return Timed("rename", to, [&] { return base_->Rename(from, to); });
}

awr::Status TimingFs::Remove(const std::string& path) {
  return Timed("remove", path, [&] { return base_->Remove(path); });
}

awr::Result<std::vector<std::string>> TimingFs::List(const std::string& dir) {
  return Timed("list", dir, [&] { return base_->List(dir); });
}

awr::Status TimingFs::SyncDir(const std::string& dir) {
  return Timed("syncdir", dir, [&] { return base_->SyncDir(dir); });
}

awr::Status TimingFs::MkDir(const std::string& dir) {
  return Timed("mkdir", dir, [&] { return base_->MkDir(dir); });
}

bool TimingFs::FileExists(const std::string& path) {
  return Timed("exists", path, [&] { return base_->FileExists(path); });
}

uint64_t TimingFs::written_bytes(FileKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_[static_cast<int>(kind)];
}

void TimingFs::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t& w : written_) w = 0;
}

}  // namespace perfbench
