// A timing decorator over the storage layer's Io seam (util/io.h).
//
// Passed through StorageOptions::io, it forwards every call to PosixIo()
// unchanged — no sync is skipped or faked — and counts calls, bytes and
// time per operation, so the util/io and storage numbers come from the
// benchmark's own code without touching the library. With a Tracer set,
// every call is also recorded as a util/io span.

#ifndef PERFBENCH_TIMING_IO_H_
#define PERFBENCH_TIMING_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/io.h"

namespace perfbench {

class Tracer;

struct IoCounters {
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t syncs = 0;  // fsync + fdatasync
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t renames = 0;
  uint64_t other = 0;  // open, close, truncate, seek, unlink, ...
  double total_us = 0;
  std::vector<double> sync_us;  // one sample per sync
};

class TimingIo : public logres::Io {
 public:
  TimingIo() = default;
  TimingIo(const TimingIo&) = delete;
  TimingIo& operator=(const TimingIo&) = delete;

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  const IoCounters& counters() const { return counters_; }
  void Reset() { counters_ = IoCounters{}; }

  logres::IoResult Open(const std::string& path, int flags, int mode) override;
  logres::IoResult Close(int fd) override;
  logres::IoResult Read(int fd, void* buf, size_t count) override;
  logres::IoResult Write(int fd, const void* buf, size_t count) override;
  logres::IoResult Fsync(int fd) override;
  logres::IoResult Fdatasync(int fd) override;
  logres::IoResult Ftruncate(int fd, uint64_t size) override;
  logres::IoResult Lseek(int fd, int64_t offset, int whence) override;
  logres::IoResult Rename(const std::string& from,
                          const std::string& to) override;
  logres::IoResult Unlink(const std::string& path) override;
  logres::IoResult Mkdir(const std::string& path, int mode) override;
  logres::IoResult Exists(const std::string& path) override;
  logres::IoResult ListDir(const std::string& path,
                           std::vector<std::string>* names) override;

 private:
  enum class Kind { kWrite, kSync, kRead, kRename, kOther };

  // Times `call` (a forwarding lambda), records a span when tracing, and
  // adds the call to the counters.
  template <typename Call>
  logres::IoResult Timed(const char* name, Kind kind, Call call);

  logres::Io& base_ = logres::PosixIo();
  Tracer* tracer_ = nullptr;
  IoCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_IO_H_
