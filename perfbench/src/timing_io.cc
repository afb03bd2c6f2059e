#include "timing_io.h"

#include "bench.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {

using logres::IoResult;

template <typename Call>
IoResult TimingIo::Timed(const char* name, Kind kind, Call call) {
  Span span(tracer_, kLayerIo, name);
  const Clock::time_point start = Clock::now();
  IoResult result = call();
  const double us = MicrosSince(start);
  counters_.total_us += us;
  const uint64_t bytes = result.ok() ? static_cast<uint64_t>(result.value) : 0;
  switch (kind) {
    case Kind::kWrite:
      ++counters_.writes;
      counters_.write_bytes += bytes;
      break;
    case Kind::kSync:
      ++counters_.syncs;
      counters_.sync_us.push_back(us);
      break;
    case Kind::kRead:
      ++counters_.reads;
      counters_.read_bytes += bytes;
      break;
    case Kind::kRename:
      ++counters_.renames;
      break;
    case Kind::kOther:
      ++counters_.other;
      break;
  }
  return result;
}

IoResult TimingIo::Open(const std::string& path, int flags, int mode) {
  return Timed("open", Kind::kOther,
               [&] { return base_.Open(path, flags, mode); });
}
IoResult TimingIo::Close(int fd) {
  return Timed("close", Kind::kOther, [&] { return base_.Close(fd); });
}
IoResult TimingIo::Read(int fd, void* buf, size_t count) {
  return Timed("read", Kind::kRead,
               [&] { return base_.Read(fd, buf, count); });
}
IoResult TimingIo::Write(int fd, const void* buf, size_t count) {
  return Timed("write", Kind::kWrite,
               [&] { return base_.Write(fd, buf, count); });
}
IoResult TimingIo::Fsync(int fd) {
  return Timed("fsync", Kind::kSync, [&] { return base_.Fsync(fd); });
}
IoResult TimingIo::Fdatasync(int fd) {
  return Timed("fdatasync", Kind::kSync,
               [&] { return base_.Fdatasync(fd); });
}
IoResult TimingIo::Ftruncate(int fd, uint64_t size) {
  return Timed("ftruncate", Kind::kOther,
               [&] { return base_.Ftruncate(fd, size); });
}
IoResult TimingIo::Lseek(int fd, int64_t offset, int whence) {
  return Timed("lseek", Kind::kOther,
               [&] { return base_.Lseek(fd, offset, whence); });
}
IoResult TimingIo::Rename(const std::string& from, const std::string& to) {
  return Timed("rename", Kind::kRename,
               [&] { return base_.Rename(from, to); });
}
IoResult TimingIo::Unlink(const std::string& path) {
  return Timed("unlink", Kind::kOther, [&] { return base_.Unlink(path); });
}
IoResult TimingIo::Mkdir(const std::string& path, int mode) {
  return Timed("mkdir", Kind::kOther,
               [&] { return base_.Mkdir(path, mode); });
}
IoResult TimingIo::Exists(const std::string& path) {
  return Timed("exists", Kind::kOther, [&] { return base_.Exists(path); });
}
IoResult TimingIo::ListDir(const std::string& path,
                           std::vector<std::string>* names) {
  return Timed("listdir", Kind::kOther,
               [&] { return base_.ListDir(path, names); });
}

}  // namespace perfbench
