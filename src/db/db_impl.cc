#include "db/db_impl.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "db/builder.h"
#include "db/db_iter.h"
#include "db/filename.h"
#include "db/value_merger.h"
#include "env/thread_pool.h"
#include "json/json.h"
#include "table/merger.h"
#include "table/table_builder.h"
#include "util/coding.h"
#include "util/mutexlock.h"
#include "util/perf_context.h"
#include "wal/log_reader.h"

namespace leveldbpp {

// One parked Write() call. The queue head writes the whole group's combined
// batch; everyone else waits on their own condvar until the head marks them
// done (or they become the head after a partial group).
struct DBImpl::Writer {
  explicit Writer(port::Mutex* mu)
      : batch(nullptr), sync(false), done(false), cv(mu) {}

  Status status;
  WriteBatch* batch;
  bool sync;
  bool done;
  uint64_t assigned_seq = 0;  // WriteOptions::assigned_seq (0 = engine picks)
  port::CondVar cv;
};

namespace {

template <class T, class V>
static void ClipToRange(T* ptr, V minvalue, V maxvalue) {
  if (static_cast<V>(*ptr) > maxvalue) *ptr = maxvalue;
  if (static_cast<V>(*ptr) < minvalue) *ptr = minvalue;
}

Options SanitizeOptions(const InternalKeyComparator* icmp,
                        const InternalFilterPolicy* ipolicy,
                        const Options& src) {
  Options result = src;
  result.comparator = icmp;
  result.filter_policy = (src.filter_policy != nullptr) ? ipolicy : nullptr;
  if (result.env == nullptr) {
    result.env = Env::Posix();
  }
  ClipToRange(&result.write_buffer_size, 64 << 10, 1 << 30);
  ClipToRange(&result.max_file_size, 16 << 10, 1 << 30);
  ClipToRange(&result.block_size, 1 << 10, 4 << 20);
  ClipToRange(&result.max_immutable_memtables, 1, 8);
  ClipToRange(&result.ingest_parallelism, 1, 16);
  if (result.l0_slowdown_writes_trigger > result.l0_stop_writes_trigger) {
    result.l0_slowdown_writes_trigger = result.l0_stop_writes_trigger;
  }
  if (!result.secondary_attributes.empty() &&
      result.attribute_extractor == nullptr) {
    // Secondary meta cannot be built without an extractor; drop the attrs
    // rather than building empty filters.
    result.secondary_attributes.clear();
  }
  return result;
}

}  // namespace

DB::~DB() = default;

Snapshot::~Snapshot() = default;

DBImpl::DBImpl(const Options& raw_options, const std::string& dbname)
    : env_(raw_options.env != nullptr ? raw_options.env : Env::Posix()),
      internal_comparator_(raw_options.comparator != nullptr
                               ? raw_options.comparator
                               : BytewiseComparator()),
      internal_filter_policy_(raw_options.filter_policy),
      options_(SanitizeOptions(&internal_comparator_, &internal_filter_policy_,
                               raw_options)),
      dbname_(dbname),
      table_cache_(new TableCache(dbname_, options_, 10000)),
      background_work_finished_signal_(&mutex_),
      mem_(nullptr),
      logfile_number_(0),
      versions_(new VersionSet(dbname_, &options_, table_cache_.get(),
                               &internal_comparator_)) {
  table_cache_->SetQuarantine(&quarantine_);
}

DBImpl::~DBImpl() {
  // Wait for any in-flight background flush/compaction. A work item that is
  // scheduled but not yet running will still run; it observes shutting_down_
  // and exits without touching the tree.
  mutex_.Lock();
  shutting_down_.store(true, std::memory_order_release);
  while (background_compaction_scheduled_ || compaction_token_held_ ||
         flush_in_progress_) {
    background_work_finished_signal_.Wait();
  }
  // A flush or compaction whose old version a reader still held could not
  // delete that version's files, and nothing deletes them later if no more
  // background work runs. Every reader is gone now: sweep them, so the store
  // a close leaves behind does not depend on how reads and the last
  // compaction happened to overlap.
  if (opened_) RemoveObsoleteFiles();
  mutex_.Unlock();

  if (mem_ != nullptr) mem_->Unref();
  for (const ImmEntry& e : imm_queue_) e.mem->Unref();
}

Status DB::Open(const Options& options, const std::string& name, DB** dbptr) {
  DBImpl* impl = nullptr;
  Status s = DBImpl::Open(options, name, &impl);
  *dbptr = impl;
  return s;
}

Status DBImpl::Open(const Options& options, const std::string& dbname,
                    DBImpl** dbptr) {
  *dbptr = nullptr;
  DBImpl* impl = new DBImpl(options, dbname);
  impl->mutex_.Lock();
  VersionEdit edit;
  Status s = impl->Recover(&edit);
  if (s.ok() && impl->mem_ == nullptr) {
    // Create new log and a corresponding memtable.
    uint64_t new_log_number = impl->versions_->NewFileNumber();
    std::unique_ptr<WritableFile> lfile;
    s = impl->env_->NewWritableFile(LogFileName(dbname, new_log_number),
                                    &lfile);
    if (s.ok()) {
      edit.SetLogNumber(new_log_number);
      impl->logfile_ = std::move(lfile);
      impl->logfile_number_ = new_log_number;
      impl->log_ = std::make_unique<log::Writer>(impl->logfile_.get());
      impl->mem_ = new MemTable(impl->internal_comparator_,
                                impl->options_.secondary_attributes,
                                impl->options_.attribute_extractor);
      impl->mem_->Ref();
    }
  }
  if (s.ok()) {
    s = impl->versions_->LogAndApply(&edit);
  }
  if (s.ok()) {
    impl->RemoveObsoleteFiles();
  }
  impl->mutex_.Unlock();
  if (s.ok() && impl->options_.shared_sequence != nullptr) {
    // Future claims from the shared counter must be fresher than anything
    // this instance recovered (max, not store: sibling instances may have
    // already pushed the counter further).
    std::atomic<uint64_t>* shared = impl->options_.shared_sequence;
    const uint64_t last = impl->versions_->LastSequence();
    uint64_t cur = shared->load(std::memory_order_relaxed);
    while (cur < last && !shared->compare_exchange_weak(
                             cur, last, std::memory_order_relaxed)) {
    }
  }
  if (s.ok()) {
    // Drain any compaction debt left by recovery before handing the DB out
    // (both modes; keeps Open deterministic).
    s = impl->MaybeCompact();
  }
  if (s.ok()) {
    impl->opened_ = true;
    *dbptr = impl;
  } else {
    delete impl;
  }
  return s;
}

Status DBImpl::Recover(VersionEdit* edit) {
  mutex_.AssertHeld();
  env_->CreateDir(dbname_);

  if (!env_->FileExists(CurrentFileName(dbname_))) {
    if (options_.create_if_missing) {
      // Write an initial MANIFEST so Recover() below has something to read.
      VersionEdit new_db;
      new_db.SetComparatorName(internal_comparator_.user_comparator()->Name());
      new_db.SetLogNumber(0);
      new_db.SetNextFile(2);
      new_db.SetLastSequence(0);

      const std::string manifest = DescriptorFileName(dbname_, 1);
      std::unique_ptr<WritableFile> file;
      Status s = env_->NewWritableFile(manifest, &file);
      if (!s.ok()) return s;
      {
        log::Writer log(file.get());
        std::string record;
        new_db.EncodeTo(&record);
        s = log.AddRecord(Slice(record));
        if (s.ok()) s = file->Sync();
        if (s.ok()) s = file->Close();
      }
      if (s.ok()) {
        s = SetCurrentFile(env_, dbname_, 1);
      } else {
        env_->RemoveFile(manifest);
      }
      if (!s.ok()) return s;
    } else {
      return Status::InvalidArgument(dbname_,
                                     "does not exist (create_if_missing=false)");
    }
  }

  Status s = versions_->Recover();
  if (!s.ok()) return s;

  // Recover any log files newer than the descriptor's log number, in order.
  SequenceNumber max_sequence = versions_->LastSequence();
  const uint64_t min_log = versions_->LogNumber();
  std::vector<std::string> filenames;
  s = env_->GetChildren(dbname_, &filenames);
  if (!s.ok()) return s;
  std::vector<uint64_t> logs;
  for (const std::string& fname : filenames) {
    uint64_t number;
    FileType type;
    if (ParseFileName(fname, &number, &type) && type == kLogFile &&
        number >= min_log) {
      logs.push_back(number);
    }
  }
  std::sort(logs.begin(), logs.end());

  for (uint64_t log_number : logs) {
    s = RecoverLogFile(log_number, edit, &max_sequence);
    if (!s.ok()) return s;
    versions_->ReuseFileNumber(log_number);  // Best effort
  }

  if (versions_->LastSequence() < max_sequence) {
    versions_->SetLastSequence(max_sequence);
  }
  return Status::OK();
}

Status DBImpl::RecoverLogFile(uint64_t log_number, VersionEdit* edit,
                              SequenceNumber* max_sequence) {
  mutex_.AssertHeld();
  struct LogReporter : public log::Reader::Reporter {
    Status* status;
    void Corruption(size_t, const Status& s) override {
      // WAL tails may be torn after a crash; remember the first error but
      // keep whatever parsed (paranoid mode would fail instead).
      if (status != nullptr && status->ok()) *status = s;
    }
  };

  std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;

  LogReporter reporter;
  Status log_status;
  reporter.status = options_.paranoid_checks ? &log_status : nullptr;
  log::Reader reader(file.get(), &reporter, true /*checksum*/);

  std::string scratch;
  Slice record;
  WriteBatch batch;
  MemTable* mem = nullptr;
  while (reader.ReadRecord(&record, &scratch) && log_status.ok()) {
    if (options_.statistics != nullptr) {
      options_.statistics->Record(kRecoveryWalRecords);
    }
    if (record.size() < 12) {
      continue;  // Too small to be a valid batch header
    }
    WriteBatchInternal::SetContents(&batch, record);

    if (mem == nullptr) {
      mem = new MemTable(internal_comparator_, options_.secondary_attributes,
                         options_.attribute_extractor);
      mem->Ref();
    }
    s = WriteBatchInternal::InsertInto(&batch, mem);
    if (!s.ok()) break;
    const SequenceNumber last_seq = WriteBatchInternal::Sequence(&batch) +
                                    WriteBatchInternal::Count(&batch) - 1;
    if (last_seq > *max_sequence) {
      *max_sequence = last_seq;
    }

    if (mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      s = WriteLevel0Table(mem, edit);
      mem->Unref();
      mem = nullptr;
      if (!s.ok()) break;
    }
  }
  if (s.ok() && !log_status.ok()) s = log_status;
  if (options_.statistics != nullptr && reader.TornTailBytes() > 0) {
    options_.statistics->Record(kRecoveryTornTailBytes, reader.TornTailBytes());
  }

  if (s.ok() && mem != nullptr && mem->NumEntries() > 0) {
    s = WriteLevel0Table(mem, edit);
  }
  if (mem != nullptr) mem->Unref();
  return s;
}

Status DBImpl::WriteLevel0Table(MemTable* mem, VersionEdit* edit) {
  mutex_.AssertHeld();
  FileMetaData meta;
  meta.number = versions_->NewFileNumber();
  pending_outputs_.insert(meta.number);
  Iterator* iter = mem->NewIterator();

  // Versions shadowed only above the oldest live snapshot must survive the
  // flush so snapshot reads stay exact. With no snapshot every shadowed
  // version goes. Not LastSequence(): during RecoverLogFile it is still the
  // MANIFEST's, below every version the WAL replay wrote.
  const SequenceNumber smallest_snapshot =
      snapshots_.empty() ? kMaxSequenceNumber
                         : snapshots_.oldest()->sequence();

  // The build reads only `mem` (pinned by the caller's reference) and
  // writes a file no Version knows about yet (pinned via pending_outputs_),
  // so the mutex can be released for the duration of the I/O.
  mutex_.Unlock();
  Status s = BuildTable(dbname_, env_, options_, internal_comparator_,
                        table_cache_.get(), iter, smallest_snapshot, &meta);
  delete iter;
  mutex_.Lock();

  pending_outputs_.erase(meta.number);
  if (s.ok() && meta.file_size > 0) {
    edit->AddFile(0, meta);
  }
  if (options_.statistics != nullptr) {
    options_.statistics->Record(kFlushCount);
  }
  return s;
}

Status DBImpl::Put(const WriteOptions& o, const Slice& key,
                   const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(o, &batch);
}

Status DBImpl::Delete(const WriteOptions& o, const Slice& key) {
  if (options_.value_merger != nullptr) {
    // Whole-key deletes are outside the merge contract (value_merger.h):
    // fragment reads union every residence, so the merged values alone
    // must define what is visible. The Lazy index deletes entries with
    // in-list deletion markers instead — so does any other client of a
    // merged table.
    return Status::NotSupported(
        "point Delete on a ValueMerger table; use an in-value deletion "
        "marker");
  }
  WriteBatch batch;
  batch.Delete(key);
  return Write(o, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  const bool sync = options.sync || options_.sync_writes;
  // Put latency includes queue wait: it is what the caller experiences.
  // Memtable-rotation markers (updates == nullptr) are not Puts.
  Statistics* const stats = options_.statistics;
  const uint64_t put_start_micros =
      (stats != nullptr && updates != nullptr) ? env_->NowMicros() : 0;
  Writer w(&mutex_);
  w.batch = updates;
  w.sync = sync;
  w.done = false;
  w.assigned_seq = options.assigned_seq;

  MutexLock l(&mutex_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.Wait();
  }
  if (w.done) {
    if (stats != nullptr && updates != nullptr) {
      stats->RecordHistogram(kHistPutMicros,
                             env_->NowMicros() - put_start_micros);
    }
    return w.status;
  }

  // This writer is the queue head: write on behalf of the whole group. A
  // no_stall head that hits a ladder rung gets Busy back before any group
  // is built, so only THIS writer is refused — followers become the next
  // head and decide for themselves. (A no_stall writer parked BEHIND a
  // blocking head still waits for that head; the serving layer issues only
  // no_stall writes per shard, so its queue never mixes the two.)
  Status status = bg_error_;
  if (status.ok()) {
    status = MakeRoomForWrite(updates == nullptr, options.no_stall);
  }
  uint64_t last_sequence = versions_->LastSequence();
  Writer* last_writer = &w;
  if (status.ok() && updates != nullptr) {
    int group_size = 0;
    WriteBatch* write_batch = BuildBatchGroup(&last_writer, &group_size);
    const uint32_t count = WriteBatchInternal::Count(write_batch);
    SequenceNumber first_seq;
    if (w.assigned_seq != 0) {
      // Caller-reserved window (BuildBatchGroup kept the batch solo, so the
      // reservation covers exactly this writer's records). The reservation
      // came from this instance's own counter or the shared one, both of
      // which only move forward — but take max defensively so LastSequence
      // stays monotonic.
      first_seq = w.assigned_seq;
      last_sequence = std::max<uint64_t>(last_sequence, first_seq + count - 1);
    } else if (options_.shared_sequence != nullptr) {
      // Claim a window from the cross-instance counter. Claims by this
      // instance are serialized here (only the queue head claims), so the
      // local sequence stays monotonic; other instances may consume the
      // skipped values.
      first_seq = options_.shared_sequence->fetch_add(
                      count, std::memory_order_relaxed) +
                  1;
      last_sequence = first_seq + count - 1;
    } else {
      first_seq = last_sequence + 1;
      last_sequence += count;
    }
    WriteBatchInternal::SetSequence(write_batch, first_seq);

    // Release the mutex for the WAL append + memtable insert: new writers
    // may enqueue meanwhile, but only the queue head touches log_ and
    // mem_, and the memtable skiplist supports one writer alongside
    // concurrent readers. LastSequence is bumped only after the insert, so
    // followers never build on an unpublished sequence window.
    MemTable* mem = mem_;
    {
      mutex_.Unlock();
      status = log_->AddRecord(WriteBatchInternal::Contents(write_batch));
      if (options_.statistics != nullptr) {
        options_.statistics->Record(kWalBytesWritten,
                                    WriteBatchInternal::ByteSize(write_batch));
        options_.statistics->Record(kGroupCommitBatches);
        options_.statistics->Record(kGroupCommitWrites, group_size);
      }
      if (status.ok() && sync) {
        const uint64_t sync_start = stats != nullptr ? env_->NowMicros() : 0;
        status = logfile_->Sync();
        if (stats != nullptr) {
          stats->RecordHistogram(kHistWalSyncMicros,
                                 env_->NowMicros() - sync_start);
        }
      }
      if (status.ok()) {
        status = WriteBatchInternal::InsertInto(write_batch, mem);
      }
      mutex_.Lock();
      if (!status.ok()) {
        // The WAL tail — or the memtable — is now in an unknown state
        // relative to what callers were (or will be) told. Appending more
        // records after a torn one could let a later replay surface writes
        // the application saw fail, or drop writes it saw succeed. Make the
        // error sticky: reject everything until a reopen re-derives a
        // consistent tail from the log, or Resume() abandons the damaged
        // WAL for a fresh one.
        RecordBackgroundError(status);
      }
    }
    if (write_batch == &tmp_batch_) tmp_batch_.Clear();
    versions_->SetLastSequence(last_sequence);
  }

  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.Signal();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) {
    writers_.front()->cv.Signal();
  }
  if (stats != nullptr && updates != nullptr) {
    stats->RecordHistogram(kHistPutMicros,
                           env_->NowMicros() - put_start_micros);
  }
  return status;
}

WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer, int* group_size) {
  mutex_.AssertHeld();
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);

  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Allow the group to grow up to a maximum size, but if the head write is
  // small, limit the growth so we do not slow down the small write too much.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  *group_size = 1;
  *last_writer = first;
  if (first->assigned_seq != 0) {
    // A caller-reserved sequence window covers exactly this writer's
    // records; absorbing followers would extend the batch past it.
    return result;
  }
  for (auto iter = writers_.begin() + 1; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->sync && !first->sync) {
      // Do not include a sync write into a batch handled by a non-sync
      // write: its durability requirement would be silently dropped.
      break;
    }
    if (w->assigned_seq != 0) {
      // A reserved-sequence write must head its own batch (see above).
      break;
    }
    if (w->batch == nullptr) {
      // A forced-rotation marker (Write(nullptr)) must become the queue
      // head so it runs MakeRoomForWrite(force) itself.
      break;
    }
    size += WriteBatchInternal::ByteSize(w->batch);
    if (size > max_size) {
      break;  // Do not make the batch too big.
    }
    if (result == first->batch) {
      // Switch to the reusable side batch on the first join; the head
      // writer's own batch must not be mutated.
      result = &tmp_batch_;
      assert(WriteBatchInternal::Count(result) == 0);
      WriteBatchInternal::Append(result, first->batch);
    }
    WriteBatchInternal::Append(result, w->batch);
    (*group_size)++;
    *last_writer = w;
  }
  return result;
}

uint64_t DBImpl::MemTableBytes() {
  mutex_.AssertHeld();
  uint64_t total = mem_->ApproximateMemoryUsage();
  for (const ImmEntry& e : imm_queue_) {
    total += e.mem->ApproximateMemoryUsage();
  }
  return total;
}

uint64_t DBImpl::TotalBytes() {
  mutex_.AssertHeld();
  uint64_t total = MemTableBytes();
  for (int level = 0; level < kNumLevels; level++) {
    total += static_cast<uint64_t>(versions_->NumLevelBytes(level));
  }
  return total;
}

Status DBImpl::RotateMemTable() {
  mutex_.AssertHeld();
  uint64_t new_log_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> lfile;
  Status s = env_->NewWritableFile(LogFileName(dbname_, new_log_number),
                                   &lfile);
  if (!s.ok()) {
    versions_->ReuseFileNumber(new_log_number);
    return s;
  }
  const uint64_t old_log_number = logfile_number_;
  logfile_ = std::move(lfile);
  logfile_number_ = new_log_number;
  log_ = std::make_unique<log::Writer>(logfile_.get());
  imm_queue_.push_back(ImmEntry{mem_, old_log_number});
  mem_ = new MemTable(internal_comparator_, options_.secondary_attributes,
                      options_.attribute_extractor);
  mem_->Ref();
  if (options_.statistics != nullptr) {
    options_.statistics->RecordHistogram(
        kHistFlushQueueDepth, static_cast<double>(imm_queue_.size()));
  }
  return Status::OK();
}

Status DBImpl::MakeRoomForWrite(bool force, bool no_stall) {
  mutex_.AssertHeld();
  assert(!writers_.empty());
  Statistics* stats = options_.statistics;

  if (force && mem_->NumEntries() == 0) {
    return Status::OK();  // Nothing to rotate.
  }

  if (!options_.background_compaction) {
    // ---- Synchronous paper mode: the seed's deterministic inline design.
    if (!force &&
        mem_->ApproximateMemoryUsage() <= options_.write_buffer_size) {
      return Status::OK();
    }

    // Switch to a fresh memtable + log file, flush the old one inline, then
    // (for size-triggered rotations) drive any triggered compactions to
    // quiescence. Forced rotations (CompactAll) skip the drain, exactly as
    // the seed did: CompactRange follows and does the full merge itself.
    Status s = RotateMemTable();
    if (!s.ok()) {
      return s;
    }

    AcquireCompactionToken();
    while (s.ok() && !imm_queue_.empty()) {
      s = CompactMemTable();
    }
    if (s.ok() && !force) {
      while (s.ok() && versions_->NeedsCompaction()) {
        s = BackgroundCompaction();
      }
    }
    ReleaseCompactionToken();
    if (!s.ok()) {
      RecordBackgroundError(s);
    }
    return s;
  }

  // ---- Background mode: the classic LevelDB slowdown/stop ladder. The
  // write path never compacts; it rotates memtables and, when the engine
  // falls behind, first delays then parks writers until the background
  // thread catches up. With max_immutable_memtables > 1 the rotation rung
  // keeps accepting writes while earlier memtables drain oldest-first; the
  // backpressure triggers count the TOTAL queued bytes so the ladder stays
  // monotone as the queue deepens.
  bool allow_delay = !force;
  const size_t max_imm = static_cast<size_t>(options_.max_immutable_memtables);
  // The imm queue deliberately has NO soft-delay rung: a near-full queue is
  // handled by the queue-full rung below, whose park wakes the moment one
  // flush lands (or whose inline flush makes progress directly). A 1 ms
  // sleep per write while the queue is deep was measured to cost more than
  // the stalls it was smoothing — the queue's whole point is to absorb
  // bursts at memtable speed. Memory stays bounded regardless: rotation
  // caps the queue at max_imm memtables of write_buffer_size each
  // (MemTableBytes() is exported as "approximate-memory-usage").
  Status s;
  while (true) {
    if (!bg_error_.ok()) {
      s = bg_error_;
      break;
    }
    if (allow_delay &&
        versions_->NumLevelFiles(0) >= options_.l0_slowdown_writes_trigger) {
      if (no_stall) {
        s = Status::Busy("write stall: L0 slowdown");
        break;
      }
      // Soft limit: surrender the CPU (and the mutex) for 1ms so the
      // compactor gains ground; pay the penalty once per write.
      mutex_.Unlock();
      env_->SleepForMicroseconds(1000);
      if (stats != nullptr) stats->Record(kWriteSlowdownMicros, 1000);
      allow_delay = false;
      mutex_.Lock();
    } else if (!force &&
               mem_->ApproximateMemoryUsage() <= options_.write_buffer_size) {
      break;  // There is room in the current memtable.
    } else if (imm_queue_.size() >= max_imm) {
      if (no_stall) {
        // Both sub-branches block — the inline flush on table I/O, the
        // park on another thread's flush — so a no_stall writer is shed
        // here either way. Nothing has been applied or rotated.
        s = Status::Busy("write stall: immutable memtable queue full");
        break;
      }
      if (!flush_in_progress_) {
        // Flush the oldest queued memtable ourselves instead of queueing
        // behind whatever compaction the background thread is running: the
        // flush only appends an L0 file, so it is safe alongside an
        // in-flight merge, and the write path resumes as soon as it
        // completes.
        Status fs = CompactMemTable();
        if (!fs.ok()) {
          RecordBackgroundError(fs);  // The loop exits on the sticky error
        }
      } else {
        // Another thread is already flushing: stop-stall until it lands.
        const uint64_t start = env_->NowMicros();
        background_work_finished_signal_.Wait();
        if (stats != nullptr) {
          stats->Record(kWriteStallMicros, env_->NowMicros() - start);
        }
      }
    } else if (versions_->NumLevelFiles(0) >=
               options_.l0_stop_writes_trigger) {
      if (no_stall) {
        s = Status::Busy("write stall: L0 stop trigger");
        break;
      }
      // Hard L0 limit: stop-stall until a compaction retires L0 files.
      const uint64_t start = env_->NowMicros();
      background_work_finished_signal_.Wait();
      if (stats != nullptr) {
        stats->Record(kWriteStallMicros, env_->NowMicros() - start);
      }
    } else {
      // Rotate to a fresh memtable + log and hand the full one to the
      // background thread.
      s = RotateMemTable();
      if (!s.ok()) {
        break;
      }
      force = false;
      MaybeScheduleCompaction();
    }
  }
  return s;
}

DBImpl::WriteStallState DBImpl::GetWriteStallState() {
  MutexLock l(&mutex_);
  WriteStallState st;
  st.l0_files = versions_->NumLevelFiles(0);
  st.imm_queue_depth = imm_queue_.size();
  st.imm_queue_capacity =
      static_cast<size_t>(options_.max_immutable_memtables);
  st.bg_error = bg_error_;
  // Mirror MakeRoomForWrite's ladder order so the reported rung is exactly
  // what a write arriving now would hit. Retry hints scale with how long
  // the rung typically takes to clear: the slowdown delay is 1 ms by
  // construction; a queued flush or an L0 compaction is tens of ms of
  // table I/O.
  if (st.l0_files >= options_.l0_stop_writes_trigger) {
    st.rung = 3;
    st.suggested_retry_micros = 50000;
  } else if (st.imm_queue_depth >= st.imm_queue_capacity) {
    st.rung = 2;
    st.suggested_retry_micros = 10000;
  } else if (st.l0_files >= options_.l0_slowdown_writes_trigger) {
    st.rung = 1;
    st.suggested_retry_micros = 2000;
  }
  if (!st.bg_error.ok() && st.suggested_retry_micros == 0) {
    // Writes are refused outright until Resume()/retry clears the error;
    // suggest a coarse backoff so shed clients do not spin.
    st.suggested_retry_micros = 100000;
  }
  return st;
}

void DBImpl::RecordBackgroundError(const Status& s) {
  mutex_.AssertHeld();
  if (bg_error_.ok()) {
    bg_error_ = s;
    background_work_finished_signal_.SignalAll();
  }
}

namespace {

// Transient errors may heal on their own (disk briefly full, EIO on a flaky
// device); Resume() is worthwhile. Permanent errors mean the bytes or the
// request itself are bad — a retry reproduces the exact same failure.
bool IsPermanentBackgroundError(const Status& s) {
  return s.IsCorruption() || s.IsNotSupported() || s.IsInvalidArgument() ||
         s.IsNotFound();
}

}  // namespace

void DBImpl::MaybeScheduleCompaction() {
  mutex_.AssertHeld();
  if (!options_.background_compaction) return;  // Sync mode works inline.
  if (background_compaction_scheduled_) return;
  if (shutting_down_.load(std::memory_order_acquire)) return;
  if (!bg_error_.ok()) return;
  if (imm_queue_.empty() && !versions_->NeedsCompaction()) return;
  background_compaction_scheduled_ = true;
  env_->Schedule(&DBImpl::BGWork, this);
}

void DBImpl::BGWork(void* db) {
  reinterpret_cast<DBImpl*>(db)->BackgroundCall();
}

void DBImpl::BackgroundCall() {
  MutexLock l(&mutex_);
  assert(background_compaction_scheduled_);
  if (!shutting_down_.load(std::memory_order_acquire) && bg_error_.ok()) {
    AcquireCompactionToken();
    // Re-check under the token: a manual compaction or a stalled writer's
    // inline flush may have drained the work while this call waited.
    Status s;
    // Flush-first keeps the imm queue short, but strict flush preference
    // starves level compaction whenever the queue is non-empty — with a
    // deep queue (max_immutable_memtables > 1) under sustained writes, L0
    // then grows past the slowdown trigger and every write pays the ladder's
    // 1 ms sleep, erasing the pipeline's benefit. Once L0 reaches the
    // slowdown trigger, relieving it is the more urgent work: the queue
    // absorbs incoming memtables meanwhile, and if it fills, the writers'
    // own queue-full rung flushes inline (a flush is safe alongside an
    // in-flight merge), so progress never depends on this thread.
    const bool l0_pressure =
        versions_->NeedsCompaction() &&
        versions_->NumLevelFiles(0) >= options_.l0_slowdown_writes_trigger;
    if (!imm_queue_.empty() && !flush_in_progress_ && !l0_pressure) {
      s = CompactMemTable();
    } else if (versions_->NeedsCompaction()) {
      s = BackgroundCompaction();
    }
    ReleaseCompactionToken();
    if (!s.ok()) {
      RecordBackgroundError(s);
    }
  }
  background_compaction_scheduled_ = false;
  // One unit of work per call: reschedule if more is pending so the queue
  // stays responsive, then wake stalled writers / waiting destructors.
  MaybeScheduleCompaction();
  background_work_finished_signal_.SignalAll();
}

void DBImpl::AcquireCompactionToken() {
  mutex_.AssertHeld();
  while (compaction_token_held_) {
    background_work_finished_signal_.Wait();
  }
  compaction_token_held_ = true;
}

void DBImpl::ReleaseCompactionToken() {
  mutex_.AssertHeld();
  assert(compaction_token_held_);
  compaction_token_held_ = false;
  background_work_finished_signal_.SignalAll();
}

Status DBImpl::CompactMemTable() {
  mutex_.AssertHeld();
  assert(!imm_queue_.empty());
  assert(!flush_in_progress_);
  flush_in_progress_ = true;
  Statistics* const stats = options_.statistics;
  const uint64_t start_micros = stats != nullptr ? env_->NowMicros() : 0;
  // Only the FRONT (oldest) entry is flushed, so L0 files keep recency
  // order. Writers may push NEW entries while the mutex is released inside
  // WriteLevel0Table; only this thread pops.
  MemTable* const imm = imm_queue_.front().mem;
  VersionEdit edit;
  Status s = WriteLevel0Table(imm, &edit);
  if (s.ok()) {
    // Advance the MANIFEST's log number only past fully-flushed logs: the
    // oldest WAL still holding unflushed data is the next queued
    // memtable's (or the live memtable's once the queue empties). A crash
    // must be able to replay every memtable still in the queue.
    const uint64_t earliest_unflushed_log =
        imm_queue_.size() > 1 ? imm_queue_[1].log_number : logfile_number_;
    edit.SetLogNumber(earliest_unflushed_log);
    s = versions_->LogAndApply(&edit);
  }
  if (s.ok()) {
    imm->Unref();
    imm_queue_.pop_front();
    RemoveObsoleteFiles();
  }
  if (stats != nullptr) {
    stats->RecordHistogram(kHistFlushMicros, env_->NowMicros() - start_micros);
  }
  flush_in_progress_ = false;
  // Wake writers parked on the "imm_ still flushing" rung (and error
  // waiters: they re-check bg_error_).
  background_work_finished_signal_.SignalAll();
  return s;
}

Status DBImpl::MaybeCompact() {
  MutexLock l(&mutex_);
  AcquireCompactionToken();
  Status s;
  while (s.ok() && versions_->NeedsCompaction()) {
    s = BackgroundCompaction();
  }
  ReleaseCompactionToken();
  return s;
}

Status DBImpl::WaitForBackgroundWork() {
  MutexLock l(&mutex_);
  if (!options_.background_compaction) {
    return bg_error_;
  }
  MaybeScheduleCompaction();  // In case pending work was never scheduled.
  while (bg_error_.ok() &&
         (!imm_queue_.empty() || background_compaction_scheduled_ ||
          compaction_token_held_ || flush_in_progress_)) {
    background_work_finished_signal_.Wait();
  }
  return bg_error_;
}

Status DBImpl::Resume() {
  MutexLock l(&mutex_);
  // Let any in-flight background work report its outcome before deciding.
  while (compaction_token_held_ || flush_in_progress_ ||
         background_compaction_scheduled_) {
    background_work_finished_signal_.Wait();
  }
  if (bg_error_.ok()) {
    return Status::OK();
  }
  if (IsPermanentBackgroundError(bg_error_)) {
    return bg_error_;  // Corruption stays sticky: run RepairDB instead.
  }
  bg_error_ = Status::OK();

  Status s;
  AcquireCompactionToken();
  // Flush the pending immutable memtables first (the failed flush left
  // them behind) so the WAL rotation below keeps the invariant that mem_'s
  // entries live in the current log.
  while (s.ok() && !imm_queue_.empty()) {
    s = CompactMemTable();
  }
  if (s.ok()) {
    // Abandon the old WAL: the failure may have left a torn append in it,
    // and records written after a torn one are unreadable at replay. A
    // fresh log (plus rotating mem_ out so its entries get re-persisted as
    // an SSTable) guarantees future acknowledged writes recover cleanly.
    uint64_t new_log_number = versions_->NewFileNumber();
    std::unique_ptr<WritableFile> lfile;
    s = env_->NewWritableFile(LogFileName(dbname_, new_log_number), &lfile);
    if (!s.ok()) {
      versions_->ReuseFileNumber(new_log_number);
    } else {
      const uint64_t old_log_number = logfile_number_;
      logfile_ = std::move(lfile);
      logfile_number_ = new_log_number;
      log_ = std::make_unique<log::Writer>(logfile_.get());
      if (mem_->NumEntries() > 0) {
        imm_queue_.push_back(ImmEntry{mem_, old_log_number});
        mem_ = new MemTable(internal_comparator_,
                            options_.secondary_attributes,
                            options_.attribute_extractor);
        mem_->Ref();
        s = CompactMemTable();
      }
    }
  }
  while (s.ok() && versions_->NeedsCompaction()) {
    s = BackgroundCompaction();
  }
  ReleaseCompactionToken();
  if (!s.ok()) {
    RecordBackgroundError(s);
    return s;
  }
  if (options_.statistics != nullptr) {
    options_.statistics->Record(kBgErrorAutorecovered);
  }
  // Wake writers parked on the sticky error, and (background mode) re-arm
  // the scheduler in case new work arrived while we held the token.
  MaybeScheduleCompaction();
  background_work_finished_signal_.SignalAll();
  return Status::OK();
}

namespace {

// Forward iterator over a sorted in-memory vector of (internal key, value)
// pairs; feeds BuildTable with one ingest chunk.
class VectorIterator : public Iterator {
 public:
  explicit VectorIterator(
      const std::vector<std::pair<std::string, std::string>>* entries)
      : entries_(entries) {}
  bool Valid() const override { return pos_ < entries_->size(); }
  void SeekToFirst() override { pos_ = 0; }
  void SeekToLast() override {
    pos_ = entries_->empty() ? 0 : entries_->size() - 1;
  }
  void Seek(const Slice& target) override {
    pos_ = 0;
    while (Valid() && Slice((*entries_)[pos_].first).compare(target) < 0) {
      pos_++;
    }
  }
  void Next() override { pos_++; }
  void Prev() override { pos_ = (pos_ == 0) ? entries_->size() : pos_ - 1; }
  Slice key() const override { return (*entries_)[pos_].first; }
  Slice value() const override { return (*entries_)[pos_].second; }
  Status status() const override { return Status::OK(); }

 private:
  const std::vector<std::pair<std::string, std::string>>* entries_;
  size_t pos_ = 0;
};

}  // namespace

Status DBImpl::IngestExternalFiles(const IngestFeed& feed,
                                   IngestStats* stats_out,
                                   bool force_level0) {
  if (!feed) {
    return Status::InvalidArgument("IngestExternalFiles: null feed");
  }

  // Claim the ingest slot: a second concurrent ingest would interleave its
  // sequence allocation with ours.
  {
    MutexLock l(&mutex_);
    if (!bg_error_.ok()) return bg_error_;
    if (ingest_in_progress_) {
      return Status::InvalidArgument(
          "IngestExternalFiles: another ingest is in progress");
    }
    ingest_in_progress_ = true;
  }

  // Flush all in-memory data first. The records below receive sequence
  // numbers newer than every existing write, but memtables are searched
  // BEFORE disk — an older in-memory version of an ingested key would
  // shadow it. With empty memtables, recency is fully encoded in the tree
  // (L0 file numbers / level depth), which the placement rule respects.
  Status s;
  bool need_flush;
  {
    MutexLock l(&mutex_);
    need_flush = mem_->NumEntries() > 0;
  }
  if (need_flush) {
    s = Write(WriteOptions(), nullptr);  // Rotate via the writer queue
  }
  if (s.ok()) {
    s = WaitForBackgroundWork();  // Drains the imm queue in background mode
  }

  const Comparator* ucmp = internal_comparator_.user_comparator();
  IngestStats local;
  std::vector<FileMetaData> files;
  std::string prev_key;
  bool have_prev = false;
  bool more = true;

  // One chunk = one SSTable. Records are read and sequence-stamped
  // serially in feed order; only the CPU-heavy table builds (compression,
  // checksums, filters, zone maps) fan out, one wave of up to
  // ingest_parallelism chunks at a time. Chunks of a strictly-increasing
  // feed are fully independent until the splice, so build order cannot
  // change the resulting tables.
  struct IngestChunk {
    std::vector<std::pair<std::string, std::string>> entries;  // ikey, value
    FileMetaData meta;
    Status status;
  };
  const int parallelism = options_.ingest_parallelism;

  while (s.ok() && more) {
    // ---- Serially read one wave of chunks, allocating each chunk's
    // sequence window and file number in feed order. Sequence numbers must
    // be globally fresh so ingested records win any future comparison
    // against older versions; the no-concurrent-writers requirement keeps
    // each window private.
    std::vector<IngestChunk> wave;
    wave.reserve(parallelism);
    while (s.ok() && more && static_cast<int>(wave.size()) < parallelism) {
      std::vector<std::pair<std::string, std::string>> records;
      size_t chunk_bytes = 0;
      std::string key, value;
      while (chunk_bytes < options_.max_file_size) {
        key.clear();
        value.clear();
        if (!feed(&key, &value)) {
          more = false;
          break;
        }
        if (have_prev && ucmp->Compare(Slice(key), Slice(prev_key)) <= 0) {
          s = Status::InvalidArgument(
              "IngestExternalFiles: keys must be strictly increasing");
          break;
        }
        prev_key = key;
        have_prev = true;
        chunk_bytes += key.size() + value.size();
        records.emplace_back(std::move(key), std::move(value));
      }
      if (!s.ok() || records.empty()) break;

      SequenceNumber first;
      uint64_t file_number;
      {
        MutexLock l(&mutex_);
        if (!bg_error_.ok()) {
          s = bg_error_;
          break;
        }
        if (options_.shared_sequence != nullptr) {
          // Shared-counter mode: the window must be globally fresh, not
          // just locally (the counter is >= every sibling's LastSequence).
          first = options_.shared_sequence->fetch_add(
                      records.size(), std::memory_order_relaxed) +
                  1;
        } else {
          first = versions_->LastSequence() + 1;
        }
        versions_->SetLastSequence(first + records.size() - 1);
        file_number = versions_->NewFileNumber();
        pending_outputs_.insert(file_number);
      }
      if (local.keys == 0) local.first_seq = first;
      local.last_seq = first + records.size() - 1;
      local.keys += records.size();

      IngestChunk chunk;
      chunk.meta.number = file_number;
      chunk.entries.reserve(records.size());
      for (size_t i = 0; i < records.size(); i++) {
        std::string ikey;
        AppendInternalKey(&ikey,
                          ParsedInternalKey(Slice(records[i].first),
                                            first + i, kTypeValue));
        chunk.entries.emplace_back(std::move(ikey),
                                   std::move(records[i].second));
      }
      wave.push_back(std::move(chunk));
    }
    if (!s.ok()) {
      // Mid-wave read failure: drop the allocated-but-unbuilt chunks
      // (nothing reached disk; the burned sequence windows are harmless).
      MutexLock l(&mutex_);
      for (const IngestChunk& chunk : wave) {
        pending_outputs_.erase(chunk.meta.number);
      }
      break;
    }
    if (wave.empty()) break;

    // ---- Build the wave's SSTables concurrently through the regular
    // builder (zone maps, embedded secondary filters, sync and verify
    // included). The mutex is not held: the files are invisible until the
    // splice, and pending_outputs_ protects them from RemoveObsoleteFiles.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(wave.size());
    for (IngestChunk& chunk : wave) {
      tasks.push_back([this, &chunk]() {
        VectorIterator iter(&chunk.entries);
        // Ingest feeds carry one version per user key and the sequences are
        // newer than any snapshot, so unconditional collapse is safe.
        chunk.status =
            BuildTable(dbname_, env_, options_, internal_comparator_,
                       table_cache_.get(), &iter, kMaxSequenceNumber,
                       &chunk.meta);
      });
    }
    ParallelRun(&tasks, parallelism, options_.statistics);

    // ---- Collect in feed order; the first failure fails the ingest.
    {
      MutexLock l(&mutex_);
      for (const IngestChunk& chunk : wave) {
        pending_outputs_.erase(chunk.meta.number);
      }
    }
    for (IngestChunk& chunk : wave) {
      if (!chunk.status.ok()) {
        if (s.ok()) s = chunk.status;
      } else if (chunk.meta.file_size > 0) {
        local.files++;
        local.bytes += chunk.meta.file_size;
        files.push_back(chunk.meta);
      }
    }
  }

  // ---- Splice every built file in ONE VersionEdit: the ingest becomes
  // visible (and durable — LogAndApply syncs the MANIFEST, which also
  // records the advanced last-sequence) atomically.
  if (s.ok() && !files.empty()) {
    MutexLock l(&mutex_);
    if (!bg_error_.ok()) {
      s = bg_error_;
    } else {
      VersionEdit edit;
      Version* base = versions_->current();
      for (const FileMetaData& f : files) {
        // Deepest level whose files (and those of every shallower level)
        // are disjoint from this file's range: Get walks newest-to-oldest
        // residences, so correctness only requires that no OLDER version
        // of an ingested key lives deeper than the splice point — and any
        // such version lies inside some overlapping file's range. With
        // overlap anywhere, fall back to L0, where the fresh file number
        // makes the file the newest residence.
        const Slice smallest = f.smallest.user_key();
        const Slice largest = f.largest.user_key();
        int target = 0;
        if (!force_level0 && !base->OverlapInLevel(0, &smallest, &largest)) {
          for (int level = 1; level < kNumLevels &&
                              !base->OverlapInLevel(level, &smallest, &largest);
               level++) {
            target = level;
          }
        }
        edit.AddFile(target, f);
      }
      s = versions_->LogAndApply(&edit);
      if (s.ok()) {
        RemoveObsoleteFiles();
      }
    }
  }

  {
    MutexLock l(&mutex_);
    if (!s.ok()) {
      // Remove the orphaned builds; the burned sequence window is harmless.
      for (const FileMetaData& f : files) {
        table_cache_->Evict(f.number);
        env_->RemoveFile(TableFileName(dbname_, f.number));
      }
    }
    ingest_in_progress_ = false;
  }

  if (s.ok()) {
    if (options_.statistics != nullptr && local.files > 0) {
      options_.statistics->Record(kIngestFiles, local.files);
      options_.statistics->Record(kIngestBytes, local.bytes);
      options_.statistics->Record(kIngestKeys, local.keys);
    }
    if (stats_out != nullptr) *stats_out = local;
  }
  return s;
}

Status DBImpl::BackgroundCompaction() {
  mutex_.AssertHeld();
  std::unique_ptr<Compaction> c(versions_->PickCompaction());
  if (c == nullptr) return Status::OK();

  Status status;
  if (c->IsTrivialMove()) {
    // Move file to next level.
    FileMetaData* f = c->input(0, 0);
    c->edit()->RemoveFile(c->level(), f->number);
    c->edit()->AddFile(c->level() + 1, *f);
    status = versions_->LogAndApply(c->edit());
  } else {
    status = DoCompactionWork(c.get());
  }
  c->ReleaseInputs();
  RemoveObsoleteFiles();
  return status;
}

Status DBImpl::DoCompactionWork(Compaction* c) {
  mutex_.AssertHeld();
  Statistics* stats = options_.statistics;
  if (stats != nullptr) {
    uint64_t input_bytes = 0;
    for (int which = 0; which < 2; which++) {
      for (int i = 0; i < c->num_input_files(which); i++) {
        input_bytes += c->input(which, i)->file_size;
      }
    }
    stats->Record(kCompactionCount);
    stats->Record(kCompactionBytesRead, input_bytes);
  }

  // Oldest sequence any live snapshot can still read. Record versions at or
  // below this bound behave classically (newest wins, the rest drop);
  // versions above it must survive the merge so snapshot reads stay exact.
  // With no live snapshots this is LastSequence and every version is "at or
  // below" it, reproducing plain newest-wins semantics.
  const SequenceNumber smallest_snapshot =
      snapshots_.empty() ? versions_->LastSequence()
                         : snapshots_.oldest()->sequence();

  // The merge loop runs with the mutex released: the inputs are pinned by
  // the compaction's input-version reference, and the outputs are invisible
  // to every Version until LogAndApply (protected from garbage collection
  // via pending_outputs_). Only file-number allocation retakes the mutex.
  mutex_.Unlock();
  const uint64_t start_micros = stats != nullptr ? env_->NowMicros() : 0;

  std::unique_ptr<Iterator> input(versions_->MakeInputIterator(c));
  input->SeekToFirst();

  Status status;
  std::unique_ptr<WritableFile> outfile;
  std::unique_ptr<TableBuilder> builder;
  std::vector<FileMetaData> outputs;

  const Comparator* ucmp = internal_comparator_.user_comparator();
  const ValueMerger* merger = options_.value_merger;

  auto open_output = [&]() -> Status {
    FileMetaData meta;
    {
      MutexLock l(&mutex_);
      meta.number = versions_->NewFileNumber();
      pending_outputs_.insert(meta.number);
    }
    outputs.push_back(meta);
    std::string fname = TableFileName(dbname_, meta.number);
    Status s = env_->NewWritableFile(fname, &outfile);
    if (s.ok()) {
      builder = std::make_unique<TableBuilder>(options_, outfile.get());
    }
    return s;
  };

  auto finish_output = [&]() -> Status {
    assert(builder != nullptr);
    FileMetaData& meta = outputs.back();
    Status s = builder->Finish();
    if (s.ok()) {
      meta.file_size = builder->FileSize();
      for (size_t i = 0; i < options_.secondary_attributes.size(); i++) {
        meta.zone_ranges.push_back(builder->FileZoneRange(i));
      }
      if (stats != nullptr) {
        stats->Record(kCompactionBytesWritten, meta.file_size);
      }
    }
    builder.reset();
    if (s.ok()) s = outfile->Sync();
    if (s.ok()) s = outfile->Close();
    outfile.reset();
    return s;
  };

  auto emit = [&](const Slice& internal_key, const Slice& value) -> Status {
    Status s;
    if (builder == nullptr) {
      s = open_output();
      if (!s.ok()) return s;
    }
    FileMetaData& meta = outputs.back();
    if (builder->NumEntries() == 0) {
      meta.smallest.DecodeFrom(internal_key);
    }
    meta.largest.DecodeFrom(internal_key);
    const SequenceNumber seq = ExtractSequence(internal_key);
    if (seq > meta.max_seq) meta.max_seq = seq;
    builder->Add(internal_key, value);
    if (builder->FileSize() >= c->MaxOutputFileSize()) {
      s = finish_output();
    }
    return s;
  };

  // The Lazy-index merger path writes each key through the merge run that
  // flush shares; the ordinary path drops per entry inside the loop below.
  MergeRun run(
      merger, ucmp,
      [c](const Slice& user_key) { return c->IsBaseLevelForKey(user_key); },
      emit);

  // Per-entry state for the ordinary (merger == nullptr) drop rule.
  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

  for (; input->Valid() && status.ok(); input->Next()) {
    Slice key = input->key();
    ParsedInternalKey ikey;
    if (!ParseInternalKey(key, &ikey)) {
      status = Status::Corruption("corrupted internal key in compaction");
      break;
    }

    if (merger == nullptr) {
      // Ordinary LSM semantics, snapshot-aware: a version is dropped only
      // when a NEWER version of the same user key is itself invisible to
      // every live snapshot (then no read can ever land between the two),
      // or when it is a tombstone no snapshot can see that has reached its
      // base level (nothing older survives below). With no snapshots this
      // collapses each key to its newest version, with tombstones carried
      // until the base level — the classic rule.
      bool drop = false;
      if (!has_current_user_key ||
          ucmp->Compare(ikey.user_key, Slice(current_user_key)) != 0) {
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }
      if (last_sequence_for_key <= smallest_snapshot) {
        drop = true;  // Shadowed by a newer entry no snapshot can miss
      } else if (ikey.type == kTypeDeletion &&
                 ikey.sequence <= smallest_snapshot &&
                 c->IsBaseLevelForKey(ikey.user_key)) {
        drop = true;
      }
      last_sequence_for_key = ikey.sequence;
      if (!drop) {
        status = emit(key, input->value());
      }
      continue;
    }

    status = run.Add(ikey, input->value());
  }
  if (status.ok()) status = run.Finish();
  if (status.ok()) status = input->status();
  input.reset();

  if (status.ok() && builder != nullptr) {
    status = finish_output();
  } else if (builder != nullptr) {
    builder->Abandon();
    builder.reset();
    outfile.reset();
  }

  mutex_.Lock();
  if (status.ok()) {
    c->AddInputDeletions(c->edit());
    for (const FileMetaData& out : outputs) {
      if (out.file_size > 0) {
        c->edit()->AddFile(c->level() + 1, out);
      }
    }
    status = versions_->LogAndApply(c->edit());
  }
  for (const FileMetaData& out : outputs) {
    pending_outputs_.erase(out.number);
  }
  if (stats != nullptr) {
    stats->RecordHistogram(kHistCompactionMicros,
                           env_->NowMicros() - start_micros);
  }
  return status;
}

void DBImpl::RemoveObsoleteFiles() {
  mutex_.AssertHeld();
  if (!bg_error_.ok()) {
    // After a background error, we don't know whether a new version may
    // or may not have been committed, so we cannot safely garbage collect.
    return;
  }

  // Make a set of all of the live files: everything referenced by some
  // version plus in-progress flush/compaction outputs.
  std::set<uint64_t> live = pending_outputs_;
  versions_->AddLiveFiles(&live);

  std::vector<std::string> filenames;
  env_->GetChildren(dbname_, &filenames);  // Ignoring errors on purpose
  std::vector<std::string> files_to_delete;
  uint64_t number;
  FileType type;
  for (const std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type)) {
      bool keep = true;
      switch (type) {
        case kLogFile:
          keep = (number >= versions_->LogNumber());
          break;
        case kDescriptorFile:
          keep = (number >= versions_->ManifestFileNumber());
          break;
        case kTableFile:
          keep = (live.find(number) != live.end());
          break;
        case kTempFile:
        case kSortedViewFile:  // Left behind by older versions
          keep = false;
          break;
        case kCurrentFile:
        case kDBLockFile:
          keep = true;
          break;
      }

      if (!keep) {
        if (type == kTableFile) {
          table_cache_->Evict(number);
        }
        files_to_delete.push_back(filename);
      }
    }
  }

  // The deletions can run unlocked: everything in files_to_delete is
  // unreferenced by now, so nobody can observe the files disappearing.
  mutex_.Unlock();
  for (const std::string& filename : files_to_delete) {
    env_->RemoveFile(dbname_ + "/" + filename);
  }
  mutex_.Lock();
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  // Public point lookups only: internal GetWithMeta callers (candidate
  // validation) are timed as validate_micros, not get latency.
  Statistics* const stats = options_.statistics;
  const uint64_t start = stats != nullptr ? env_->NowMicros() : 0;
  ScopedPerfTimer timer(&PerfContext::get_micros);
  RecordLocation loc;
  Status s = GetWithMeta(options, key, value, &loc);
  if (stats != nullptr) {
    stats->RecordHistogram(kHistGetMicros, env_->NowMicros() - start);
  }
  return s;
}

DBImpl::ReadView::ReadView(DBImpl* db, const ReadOptions& options)
    : db_(db) {
  MutexLock l(&db->mutex_);
  mems.push_back(db->mem_);
  for (auto it = db->imm_queue_.rbegin(); it != db->imm_queue_.rend(); ++it) {
    mems.push_back(it->mem);
  }
  for (MemTable* m : mems) m->Ref();
  current = db->versions_->current();
  current->Ref();
  snapshot =
      options.snapshot != nullptr
          ? static_cast<const SnapshotImpl*>(options.snapshot)->sequence()
          : db->versions_->LastSequence();
}

DBImpl::ReadView::~ReadView() {
  {
    MutexLock l(&db_->mutex_);
    current->Unref();
  }
  for (MemTable* m : mems) m->Unref();
}

bool DBImpl::ReadView::GetFromMemTables(const Slice& key, std::string* value,
                                        RecordLocation* loc,
                                        Status* s) const {
  std::string mem_value;
  bool deleted;
  for (size_t i = 0; i < mems.size(); i++) {
    if (mems[i]->GetNewest(key, &mem_value, &loc->seq, &deleted, snapshot)) {
      loc->level = (i == 0) ? -1 : -2;
      *s = deleted ? Status::NotFound(Slice()) : Status::OK();
      if (!deleted) value->swap(mem_value);
      return true;
    }
  }
  return false;
}

Status DBImpl::GetWithMeta(const ReadOptions& options, const Slice& key,
                           std::string* value, RecordLocation* loc) {
  ReadView view(this, options);
  TablePins pins(table_cache_.get());
  return GetWithMeta(view, &pins, options, key, value, loc);
}

Status DBImpl::GetWithMeta(const ReadView& view, TablePins* pins,
                           const ReadOptions& options, const Slice& key,
                           std::string* value, RecordLocation* loc) {
  Status s;
  if (view.GetFromMemTables(key, value, loc, &s)) return s;
  LookupKey lkey(key, view.snapshot);
  return view.current->Get(options, lkey, pins, value, &loc->seq,
                           &loc->level);
}

Status DBImpl::MultiGet(const ReadOptions& options,
                        const std::vector<Slice>& keys,
                        std::vector<std::string>* values,
                        std::vector<Status>* statuses) {
  std::vector<RecordLocation> locs;
  return MultiGetWithMeta(options, keys, values, &locs, statuses);
}

Status DBImpl::MultiGetWithMeta(const ReadOptions& options,
                                const std::vector<Slice>& keys,
                                std::vector<std::string>* values,
                                std::vector<RecordLocation>* locs,
                                std::vector<Status>* statuses) {
  ReadView view(this, options);
  TablePins pins(table_cache_.get());
  return MultiGetWithMeta(view, &pins, options, keys, values, locs, statuses);
}

Status DBImpl::MultiGetWithMeta(const ReadView& view, TablePins* pins,
                                const ReadOptions& options,
                                const std::vector<Slice>& keys,
                                std::vector<std::string>* values,
                                std::vector<RecordLocation>* locs,
                                std::vector<Status>* statuses) {
  const size_t n = keys.size();
  values->assign(n, std::string());
  locs->assign(n, RecordLocation());
  statuses->assign(n, Status::NotFound(Slice()));
  if (n == 0) return Status::OK();
  ScopedPerfTimer timer(&PerfContext::multiget_micros);

  Statistics* stats = options_.statistics;
  if (stats != nullptr) {
    stats->Record(kMultiGetBatches);
    stats->Record(kMultiGetKeys, n);
  }

  const Comparator* ucmp = internal_comparator_.user_comparator();

  // Keys the memtables answer never touch disk (pure in-memory work, so
  // sequential). The rest are sorted by user key, so that each run below
  // meets its tables in order and the probe order does not depend on the
  // caller's key order.
  std::vector<size_t> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; i++) {
    if (!view.GetFromMemTables(keys[i], &(*values)[i], &(*locs)[i],
                               &(*statuses)[i])) {
      pending.push_back(i);
    }
  }
  std::sort(pending.begin(), pending.end(), [&](size_t a, size_t b) {
    int c = ucmp->Compare(keys[a], keys[b]);
    if (c != 0) return c < 0;
    return a < b;  // Duplicate keys keep caller order
  });

  // Every key is resolved by Get's own walk (Version::Get). The sorted keys
  // are cut into runs of about two per executor (one run when sequential);
  // a run shares one TablePins, so each table is pinned once per run and
  // sorted keys that share a block read it once (the pins' BlockMemo): a
  // batch reads no more blocks than a loop of Gets. The run length rounds
  // down: a batch that does not divide evenly gets more, shorter runs,
  // which the pool's work-sharing balances better.
  const size_t runs = options_.read_parallelism > 1
                          ? 2 * static_cast<size_t>(options_.read_parallelism)
                          : 1;
  const size_t per_task = std::max<size_t>(1, pending.size() / runs);
  std::vector<std::function<void()>> tasks;
  for (size_t begin = 0; begin < pending.size(); begin += per_task) {
    const size_t end = std::min(pending.size(), begin + per_task);
    tasks.push_back([&, begin, end]() {
      TablePins run_pins(table_cache_.get());
      TablePins* p = begin == 0 ? pins : &run_pins;
      for (size_t j = begin; j < end; j++) {
        const size_t i = pending[j];
        LookupKey lkey(keys[i], view.snapshot);
        (*statuses)[i] = view.current->Get(options, lkey, p, &(*values)[i],
                                           &(*locs)[i].seq, &(*locs)[i].level);
      }
    });
  }
  ParallelRun(&tasks, options_.read_parallelism, stats);

  // Keys never found anywhere keep their initial NotFound status. The
  // aggregate result is the first (in caller order) non-NotFound error.
  for (size_t i = 0; i < n; i++) {
    if (!(*statuses)[i].ok() && !(*statuses)[i].IsNotFound()) {
      return (*statuses)[i];
    }
  }
  return Status::OK();
}

Status DBImpl::IsNewestVersion(const ReadView& view, const Slice& key,
                               SequenceNumber seq, bool* newest,
                               int record_level, uint64_t record_file) {
  Statistics* stats = options_.statistics;
  if (stats != nullptr) stats->Record(kGetLiteCalls);
  *newest = true;

  std::string unused;
  RecordLocation found;
  Status s;
  if (view.GetFromMemTables(key, &unused, &found, &s)) {
    *newest = found.seq <= seq;
    return Status::OK();
  }
  // A record in a memtable has nothing newer on disk.
  if (record_level < 0) return Status::OK();

  // Only residences STRICTLY NEWER than the record's own are probed (the
  // paper's "check levels 0 to currentlevel-1"): for an L0 record, L0
  // files with a higher file number; for a level-i record, all of L0 plus
  // levels 1..i-1. The first version the walk finds is the newest.
  LookupKey lkey(key, view.snapshot);
  TablePins pins(table_cache_.get());
  return view.current->WalkResidences(
      ReadOptions(), lkey, std::max(record_level, 1), &pins,
      [&](int level, FileMetaData* f) {
        if (level == 0 && record_level == 0 && f->number <= record_file) {
          return true;
        }
        // Metadata-only probe first (this is the GetLite saving). A table
        // that fails to open is left to the probe, which reports it.
        Table* t = nullptr;
        if (pins.Find(f->number, f->file_size, &t).ok() &&
            !t->KeyMayExistNoIO(lkey.internal_key())) {
          return true;
        }
        // Bloom positive: confirming bounded read of one block.
        if (stats != nullptr) stats->Record(kGetLiteConfirmReads);
        return false;
      },
      [&](int, KeyProbe& probe) {
        *newest = probe.seq <= seq;
        return false;
      });
}

Status DBImpl::GetFragments(const ReadOptions& options, const Slice& key,
                            const FragmentFn& fn) {
  ReadView view(this, options);
  const std::vector<Slice> none;
  MemTable::Versions versions;
  for (size_t rank = 0; rank < view.mems.size(); rank++) {
    if (!view.mems[rank]->GetVersions(key, view.snapshot, &versions)) {
      continue;
    }
    const int r = static_cast<int>(rank);
    if (!versions.values.empty() &&
        !fn(r, versions.newest_seq, false, versions.values)) {
      return Status::OK();
    }
    if (versions.tombstone && !fn(r, versions.tombstone_seq, true, none)) {
      return Status::OK();
    }
  }
  // Disk ranks start past the memtable and at least one imm slot, so they
  // stay stable whether or not an imm is queued.
  const int disk_rank = std::max<int>(2, static_cast<int>(view.mems.size()));
  LookupKey lkey(key, view.snapshot);
  TablePins pins(table_cache_.get());
  std::vector<Slice> one(1);
  return view.current->WalkResidences(
      options, lkey, view.current->NumLevels(), &pins, nullptr,
      [&](int level, KeyProbe& probe) {
        if (probe.state == KeyProbe::kDeleted) {
          return fn(disk_rank + level, probe.seq, true, none);
        }
        one[0] = Slice(probe.value);
        return fn(disk_rank + level, probe.seq, false, one);
      });
}

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options,
                                      SequenceNumber* snapshot) {
  ReadView* view = new ReadView(this, options);
  *snapshot = view->snapshot;
  std::vector<Iterator*> list;
  for (MemTable* m : view->mems) list.push_back(m->NewIterator());
  view->current->AddIterators(options, &list);
  Iterator* internal_iter = NewMergingIterator(
      &internal_comparator_, list.data(), static_cast<int>(list.size()));
  internal_iter->RegisterCleanup([view]() { delete view; });
  return internal_iter;
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  SequenceNumber sequence;
  Iterator* internal_iter = NewInternalIterator(options, &sequence);
  Iterator* db_iter = NewDBIterator(internal_comparator_.user_comparator(),
                                    internal_iter, sequence);
  if (options_.statistics != nullptr) {
    options_.statistics->Record(kIterCreated);
  }
  return db_iter;
}

const Snapshot* DBImpl::GetSnapshot() {
  MutexLock l(&mutex_);
  if (options_.statistics != nullptr) {
    options_.statistics->Record(kIterSnapshotsAcquired);
  }
  return snapshots_.New(versions_->LastSequence());
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  MutexLock l(&mutex_);
  if (options_.statistics != nullptr) {
    options_.statistics->Record(kIterSnapshotsReleased);
  }
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
}

DBImpl::LevelIterators::LevelIterators() = default;
DBImpl::LevelIterators::~LevelIterators() {
  for (Iterator* it : iters) delete it;
}

Status DBImpl::NewLevelIterators(const ReadOptions& options,
                                 LevelIterators* out) {
  out->view_ = std::make_unique<ReadView>(this, options);
  for (MemTable* m : out->view_->mems) out->iters.push_back(m->NewIterator());
  out->first_disk = out->iters.size();
  out->view_->current->AddIterators(options, &out->iters);
  return Status::OK();
}

namespace {

// The recency buckets of one Version's disk data: each L0 file on its own
// (newest file number first), then every non-empty deeper level as one
// bucket. `remaining_max[i]` bounds the sequence numbers in buckets i..n-1
// (0 for i == n), so a scan about to start bucket i knows the newest record
// the rest of the tree could still produce.
struct RecencyBuckets {
  std::vector<std::vector<std::pair<FileMetaData*, int>>> buckets;
  std::vector<SequenceNumber> remaining_max;
};

RecencyBuckets MakeRecencyBuckets(Version* current) {
  RecencyBuckets out;
  for (FileMetaData* f : current->level0_newest_first()) {
    out.buckets.push_back({{f, 0}});
  }
  for (int level = 1; level < current->NumLevels(); level++) {
    if (current->NumFiles(level) == 0) continue;
    std::vector<std::pair<FileMetaData*, int>> files;
    files.reserve(current->files(level).size());
    for (FileMetaData* f : current->files(level)) {
      files.emplace_back(f, level);
    }
    out.buckets.push_back(std::move(files));
  }
  out.remaining_max.assign(out.buckets.size() + 1, 0);
  for (size_t i = out.buckets.size(); i-- > 0;) {
    out.remaining_max[i] = out.remaining_max[i + 1];
    for (const auto& fl : out.buckets[i]) {
      out.remaining_max[i] = std::max(out.remaining_max[i], fl.first->max_seq);
    }
  }
  return out;
}

}  // namespace

Status DBImpl::EmbeddedScanBuckets(
    const ReadView& view, const std::string& attr, const Slice& lo,
    const Slice& hi, const MemTable::SecondaryMatchFn& memtable_visitor,
    const std::function<void(const std::vector<BlockCandidate>&)>&
        bucket_visitor,
    const std::function<bool(SequenceNumber)>& level_boundary) {
  // A writer inserts into the memtable before it publishes the sequence;
  // such records are not part of the view yet.
  for (MemTable* m : view.mems) {
    m->SecondaryLookup(attr, lo, hi,
                       [&](const Slice& key, SequenceNumber seq,
                           const Slice& value) {
                         if (seq <= view.snapshot) {
                           memtable_visitor(key, seq, value);
                         }
                       });
  }

  const bool point = (lo == hi);
  Status s;
  size_t attr_idx = options_.secondary_attributes.size();
  for (size_t i = 0; i < options_.secondary_attributes.size(); i++) {
    if (options_.secondary_attributes[i] == attr) {
      attr_idx = i;
      break;
    }
  }

  // One file of a bucket: pinned table + its candidate block ordinals. The
  // filter/zone-map probes are pure functions of the (immutable) table, so
  // they can run concurrently; the visitor then sees candidates in (file,
  // block) order.
  struct PinnedFile {
    FileMetaData* f = nullptr;
    int level = 0;
    Table* table = nullptr;
    Cache::Handle* handle = nullptr;
    std::vector<size_t> blocks;
    Status status;
  };

  auto run_bucket =
      [&](const std::vector<std::pair<FileMetaData*, int>>& files) {
    std::vector<PinnedFile> pins;
    pins.reserve(files.size());
    for (const auto& fl : files) {
      // File-level zone map (persisted in the MANIFEST metadata) prunes the
      // file without opening it at all.
      if (attr_idx < fl.first->zone_ranges.size() &&
          !fl.first->zone_ranges[attr_idx].Overlaps(lo, hi)) {
        if (options_.statistics != nullptr) {
          options_.statistics->Record(kZoneMapFilePruned);
        }
        continue;
      }
      PinnedFile pf;
      pf.f = fl.first;
      pf.level = fl.second;
      pins.push_back(std::move(pf));
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(pins.size());
    for (PinnedFile& pf : pins) {
      PinnedFile* p = &pf;
      tasks.push_back([this, p, &attr, &lo, &hi, point]() {
        p->status =
            table_cache_->Pin(p->f->number, p->f->file_size, &p->table,
                              &p->handle);
        if (!p->status.ok()) return;
        const size_t nblocks = p->table->NumDataBlocks();
        for (size_t b = 0; b < nblocks; b++) {
          bool may = point ? p->table->SecondaryBlockMayContain(attr, lo, b)
                           : p->table->SecondaryBlockMayOverlap(attr, lo, hi,
                                                                b);
          if (may) p->blocks.push_back(b);
        }
      });
    }
    ParallelRun(&tasks, options_.read_parallelism, options_.statistics);
    std::vector<BlockCandidate> candidates;
    for (const PinnedFile& pf : pins) {
      if (!pf.status.ok()) {
        if (s.ok()) s = pf.status;
        continue;
      }
      for (size_t b : pf.blocks) {
        candidates.push_back(BlockCandidate{pf.table, b, pf.level,
                                            pf.f->number});
      }
    }
    bucket_visitor(candidates);
    for (const PinnedFile& pf : pins) {
      if (pf.handle != nullptr) table_cache_->Unpin(pf.handle);
    }
  };

  const RecencyBuckets rb = MakeRecencyBuckets(view.current);
  for (size_t i = 0; i < rb.buckets.size(); i++) {
    if (!level_boundary(rb.remaining_max[i])) break;
    run_bucket(rb.buckets[i]);
  }
  return s;
}

Status DBImpl::ScanAll(
    const ReadOptions& options,
    const std::function<bool(const Slice&, SequenceNumber, const Slice&)>&
        fn) {
  SequenceNumber snapshot;
  std::unique_ptr<Iterator> it(NewInternalIterator(options, &snapshot));
  std::string current_key;
  bool has_current = false;
  bool stop = false;
  for (it->SeekToFirst(); it->Valid() && !stop; it->Next()) {
    ParsedInternalKey ikey;
    if (!ParseInternalKey(it->key(), &ikey)) continue;
    if (ikey.sequence > snapshot) continue;
    if (has_current && Slice(current_key) == ikey.user_key) continue;
    current_key.assign(ikey.user_key.data(), ikey.user_key.size());
    has_current = true;
    if (ikey.type == kTypeDeletion) continue;
    if (!fn(ikey.user_key, ikey.sequence, it->value())) stop = true;
  }
  Status s = it->status();
  if (s.IsCorruption() && !options_.paranoid_checks) {
    // Quarantine fallthrough, scan flavor: the two-level iterator already
    // skipped past every unreadable block (their entries are simply absent
    // from the scan), so surface the damage only in paranoid mode — same
    // contract as Version::Get.
    s = Status::OK();
  }
  return s;
}

Status DBImpl::CompactAll() {
  bool need_rotate;
  {
    MutexLock l(&mutex_);
    need_rotate = (mem_->NumEntries() > 0);
  }
  if (need_rotate) {
    // Force the rotation through the writer queue so it cannot race an
    // in-flight group commit.
    Status s = Write(WriteOptions(), nullptr);
    if (!s.ok()) return s;
  }
  Status s = WaitForBackgroundWork();  // No-op in synchronous mode.
  if (!s.ok()) return s;
  CompactRange(nullptr, nullptr);
  MutexLock l(&mutex_);
  return bg_error_;
}

void DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  InternalKey begin_storage, end_storage;
  InternalKey* begin_key = nullptr;
  InternalKey* end_key = nullptr;
  if (begin != nullptr) {
    begin_storage = InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
    begin_key = &begin_storage;
  }
  if (end != nullptr) {
    end_storage = InternalKey(*end, 0, static_cast<ValueType>(0));
    end_key = &end_storage;
  }

  MutexLock l(&mutex_);
  AcquireCompactionToken();
  // A writer may be flushing imm_ inline right now; it does not need the
  // token, so waiting here cannot deadlock.
  while (flush_in_progress_) {
    background_work_finished_signal_.Wait();
  }
  Status s;
  while (s.ok() && !imm_queue_.empty()) {
    // Background mode: unflushed immutable memtables would be invisible
    // to the range merge; drain them first (sync mode never gets here with
    // any pending).
    s = CompactMemTable();
  }

  // Find the highest level with overlapping files and compact everything
  // above it down into it (LevelDB semantics) — do NOT push data into
  // deeper, empty levels.
  int max_level_with_files = 1;
  {
    Version* base = versions_->current();
    for (int level = 1; level < kNumLevels; level++) {
      if (base->OverlapInLevel(level, begin, end)) {
        max_level_with_files = level;
      }
    }
  }
  for (int level = 0; s.ok() && level < max_level_with_files; level++) {
    while (s.ok()) {
      std::unique_ptr<Compaction> c(
          versions_->CompactRange(level, begin_key, end_key));
      if (c == nullptr) break;
      s = DoCompactionWork(c.get());
      c->ReleaseInputs();
      RemoveObsoleteFiles();
    }
  }
  ReleaseCompactionToken();
  if (!s.ok()) {
    RecordBackgroundError(s);
  }
}

uint64_t DBImpl::TotalSizeBytes() {
  MutexLock l(&mutex_);
  return TotalBytes();
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  Slice in = property;
  Slice prefix("leveldbpp.");
  if (!in.starts_with(prefix)) return false;
  in.remove_prefix(prefix.size());

  MutexLock l(&mutex_);
  if (in.starts_with("num-files-at-level")) {
    in.remove_prefix(strlen("num-files-at-level"));
    // A decimal level below kNumLevels; stopping once the value is out of
    // range keeps a long digit string from wrapping back into it.
    if (in.empty()) return false;
    int level = 0;
    for (size_t i = 0; i < in.size(); i++) {
      if (in[i] < '0' || in[i] > '9') return false;
      level = level * 10 + (in[i] - '0');
      if (level >= kNumLevels) return false;
    }
    *value = std::to_string(versions_->NumLevelFiles(level));
    return true;
  } else if (in == Slice("sstables")) {
    Version* current = versions_->current();
    current->Ref();
    *value = current->DebugString();
    current->Unref();
    return true;
  } else if (in == Slice("total-bytes")) {
    *value = std::to_string(TotalBytes());
    return true;
  } else if (in == Slice("approximate-memory-usage")) {
    *value = std::to_string(MemTableBytes());
    return true;
  } else if (in == Slice("levels")) {
    *value = versions_->LevelSummary();
    return true;
  } else if (in == Slice("stats")) {
    // Write-stall / group-commit / I/O tickers (engine-wide counters
    // attached via Options::statistics), plus block-cache occupancy and
    // hit ratio when a cache is configured.
    if (options_.statistics == nullptr) return false;
    *value = options_.statistics->ToString();
    char buf[128];
    const uint64_t hits = options_.statistics->Get(kBlockCacheHit);
    const uint64_t misses = options_.statistics->Get(kBlockCacheMiss);
    if (hits + misses > 0) {
      std::snprintf(buf, sizeof(buf), "%-28s %12.4f\n",
                    "block.cache.hit.ratio",
                    static_cast<double>(hits) /
                        static_cast<double>(hits + misses));
      value->append(buf);
    }
    if (options_.block_cache != nullptr) {
      std::snprintf(buf, sizeof(buf), "%-28s %12llu\n", "block.cache.charge",
                    static_cast<unsigned long long>(
                        options_.block_cache->TotalCharge()));
      value->append(buf);
    }
    if (quarantine_.Count() > 0) {
      value->append("quarantined blocks: ");
      value->append(quarantine_.Summary());
      value->append("\n");
    }
    value->append(options_.statistics->HistogramsToString());
    return true;
  } else if (in == Slice("stats.json")) {
    // Machine-readable twin of "stats": every ticker (zeros included, so
    // consumers need no schema discovery), per-histogram summaries, and the
    // quarantine state, as one compact JSON object.
    if (options_.statistics == nullptr) return false;
    const Statistics* stats = options_.statistics;
    json::Object tickers;
    for (uint32_t i = 0; i < kTickerCount; i++) {
      const Ticker t = static_cast<Ticker>(i);
      tickers[TickerName(t)] =
          json::Value(static_cast<int64_t>(stats->Get(t)));
    }
    json::Object hists;
    for (uint32_t i = 0; i < kHistogramCount; i++) {
      const HistogramType h = static_cast<HistogramType>(i);
      const Histogram hist = stats->GetHistogram(h);
      json::Object hj;
      hj["count"] = json::Value(static_cast<int64_t>(hist.Count()));
      hj["avg"] = json::Value(hist.Average());
      hj["min"] = json::Value(hist.Min());
      hj["max"] = json::Value(hist.Max());
      hj["p25"] = json::Value(hist.Percentile(25));
      hj["p50"] = json::Value(hist.Median());
      hj["p75"] = json::Value(hist.Percentile(75));
      hists[HistogramName(h)] = json::Value(std::move(hj));
    }
    json::Object quarantine;
    quarantine["blocks"] =
        json::Value(static_cast<int64_t>(quarantine_.Count()));
    quarantine["files"] =
        json::Value(static_cast<int64_t>(quarantine_.FileCount()));
    json::Object root;
    root["tickers"] = json::Value(std::move(tickers));
    root["histograms"] = json::Value(std::move(hists));
    root["quarantine"] = json::Value(std::move(quarantine));
    *value = json::Value(std::move(root)).ToString();
    return true;
  } else if (in == Slice("quarantine")) {
    // Checksum-failed blocks reads are currently routing around; non-empty
    // means the store needs RepairDB.
    *value = quarantine_.Summary();
    return true;
  }
  return false;
}

Status DestroyDB(const std::string& dbname, const Options& options) {
  Env* env = options.env != nullptr ? options.env : Env::Posix();
  std::vector<std::string> filenames;
  Status result = env->GetChildren(dbname, &filenames);
  if (!result.ok()) {
    // Ignore error in case directory does not exist
    return Status::OK();
  }

  uint64_t number;
  FileType type;
  for (const std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type)) {
      Status del = env->RemoveFile(dbname + "/" + filename);
      if (result.ok() && !del.ok()) {
        result = del;
      }
    }
  }
  env->RemoveDir(dbname);  // Ignore error in case dir contains other files
  return result;
}

}  // namespace leveldbpp
