// DedicatedSchedulerEnv: an Env wrapper that reroutes Schedule() onto a
// private worker pool instead of the process-wide single background thread
// (BackgroundScheduler in env_posix.cc).
//
// The global single-compactor model matches LevelDB, where one process runs
// one DB. A sharded server runs many: with every shard funneling flushes
// and compactions through one thread, a single shard whose flush is stuck
// on a sick disk parks that thread and starves every OTHER shard's
// background work — one slow disk becomes a fleet-wide write stall as the
// healthy shards' immutable-memtable queues fill behind work that never
// runs. ShardedDB therefore wraps each shard's Env in one of these: a
// stalled flush parks a thread only its own shard owns (DESIGN.md "Serving
// robustness").
//
// Size `threads` to the number of DB instances sharing the wrapper
// (SecondaryDB: the primary plus one per stand-alone index table). Each
// DBImpl keeps at most one background task scheduled at a time, so that
// size guarantees a runnable task never queues behind a parked one — a
// stuck PRIMARY flush cannot starve the same shard's index-table flush,
// which writers depend on (index writes keep the blocking path). The lanes
// are plain ThreadPool workers: between flushes and compactions they park
// on the pool's condvar and take no CPU from the shard's readers.
//
// The destructor finishes queued tasks, then joins the workers. Destroy
// the DBs using the wrapper first: their destructors wait for in-flight
// background work, so no task can still reference them afterwards.

#ifndef LEVELDBPP_ENV_SCHEDULER_ENV_H_
#define LEVELDBPP_ENV_SCHEDULER_ENV_H_

#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "env/thread_pool.h"

namespace leveldbpp {

class DedicatedSchedulerEnv : public Env {
 public:
  DedicatedSchedulerEnv(Env* base, int threads);
  ~DedicatedSchedulerEnv() override;

  void Schedule(void (*function)(void*), void* arg) override;

  // ---- Everything else forwards to the base Env ----
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  Status SyncDir(const std::string& dirname) override {
    return base_->SyncDir(dirname);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void StartThread(void (*function)(void*), void* arg) override {
    base_->StartThread(function, arg);
  }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

 private:
  Env* const base_;
  ThreadPool pool_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_ENV_SCHEDULER_ENV_H_
