#include "db/builder.h"

#include "db/dbformat.h"
#include "db/filename.h"
#include "db/table_cache.h"
#include "db/value_merger.h"
#include "db/version_edit.h"
#include "env/env.h"
#include "env/statistics.h"
#include "table/table_builder.h"

namespace leveldbpp {

Status BuildTable(const std::string& dbname, Env* env, const Options& options,
                  const InternalKeyComparator& icmp, TableCache* table_cache,
                  Iterator* iter, SequenceNumber smallest_snapshot,
                  FileMetaData* meta) {
  Status s;
  meta->file_size = 0;
  iter->SeekToFirst();

  std::string fname = TableFileName(dbname, meta->number);
  if (iter->Valid()) {
    std::unique_ptr<WritableFile> file;
    s = env->NewWritableFile(fname, &file);
    if (!s.ok()) {
      return s;
    }

    TableBuilder* builder = new TableBuilder(options, file.get());
    std::string last_added_key;
    auto add = [&](const Slice& key, const Slice& value) {
      if (builder->NumEntries() == 0) meta->smallest.DecodeFrom(key);
      const SequenceNumber seq = ExtractSequence(key);
      if (seq > meta->max_seq) meta->max_seq = seq;
      builder->Add(key, value);
      last_added_key.assign(key.data(), key.size());
      return Status::OK();
    };
    if (options.value_merger != nullptr) {
      MergeRun run(options.value_merger, icmp.user_comparator(), nullptr,
                   add);
      for (; iter->Valid() && s.ok(); iter->Next()) {
        ParsedInternalKey ikey;
        if (!ParseInternalKey(iter->key(), &ikey)) {
          s = Status::Corruption("corrupted internal key in table build");
        } else {
          s = run.Add(ikey, iter->value());
        }
      }
      if (s.ok()) s = run.Finish();
    } else {
      std::string current_user_key;
      bool has_current_user_key = false;
      SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
      for (; iter->Valid(); iter->Next()) {
        const Slice key = iter->key();
        // Drop superseded older versions — but only once the newer entry
        // shadowing them is visible to every live snapshot (internal keys
        // sort newest-first within a user key, so `last_sequence_for_key`
        // is the sequence of the entry directly above this one). This is
        // the same rule the compaction merge applies.
        const Slice user_key = ExtractUserKey(key);
        bool drop = false;
        if (has_current_user_key &&
            icmp.user_comparator()->Compare(
                ExtractUserKey(Slice(current_user_key)), user_key) == 0) {
          drop = last_sequence_for_key <= smallest_snapshot;
        } else {
          current_user_key.assign(key.data(), key.size());
          has_current_user_key = true;
        }
        last_sequence_for_key = ExtractSequence(key);
        if (!drop) add(key, iter->value());
      }
    }
    if (!last_added_key.empty()) {
      meta->largest.DecodeFrom(Slice(last_added_key));
    }

    // Persist the file-level zone ranges so the DB can prune whole files
    // from in-memory metadata (the paper's per-SSTable global zone map).
    if (s.ok()) {
      s = builder->Finish();
      if (s.ok()) {
        meta->file_size = builder->FileSize();
        assert(meta->file_size > 0);
        meta->zone_ranges.clear();
        for (size_t i = 0; i < options.secondary_attributes.size(); i++) {
          meta->zone_ranges.push_back(builder->FileZoneRange(i));
        }
        if (options.statistics != nullptr) {
          options.statistics->Record(kCompactionBytesWritten,
                                     meta->file_size);
        }
      }
    } else {
      builder->Abandon();  // The input held a key that does not parse
    }
    delete builder;

    // Finish and check for file errors
    if (s.ok()) {
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }
    file.reset();

    if (s.ok()) {
      // Verify that the table is usable
      Iterator* it = table_cache->NewIterator(ReadOptions(), meta->number,
                                              meta->file_size);
      s = it->status();
      delete it;
    }
  }

  // Check for input iterator errors
  if (!iter->status().ok()) {
    s = iter->status();
  }

  if (s.ok() && meta->file_size > 0) {
    // Keep it
  } else {
    env->RemoveFile(fname);
  }
  return s;
}

MergeRun::MergeRun(const ValueMerger* merger, const Comparator* ucmp,
                   std::function<bool(const Slice&)> is_base_level,
                   EmitFn emit)
    : merger_(merger),
      ucmp_(ucmp),
      is_base_level_(std::move(is_base_level)),
      emit_(std::move(emit)) {}

Status MergeRun::Add(const ParsedInternalKey& ikey, const Slice& value) {
  if (!active_ || ucmp_->Compare(ikey.user_key, Slice(user_key_)) != 0) {
    Status s = Finish();
    if (!s.ok()) return s;
    active_ = true;
    user_key_.assign(ikey.user_key.data(), ikey.user_key.size());
    newest_seq_ = ikey.sequence;
  }
  if (saw_tombstone_) {
    return Status::OK();  // Everything below the first tombstone is dead.
  }
  if (ikey.type == kTypeDeletion) {
    saw_tombstone_ = true;
    tombstone_seq_ = ikey.sequence;
  } else {
    values_.emplace_back(value.data(), value.size());
  }
  return Status::OK();
}

Status MergeRun::Finish() {
  if (!active_) return Status::OK();
  active_ = false;
  Status s;
  const Slice user_key(user_key_);
  const bool base = is_base_level_ != nullptr && is_base_level_(user_key);
  // Merge every fragment above the first tombstone; below it nothing is
  // visible, so the merge may drop deletion markers there too. A lone
  // fragment above the base level is already its own merge.
  const bool at_bottom = base || saw_tombstone_;
  bool has_value = false;
  if (values_.size() == 1 && !at_bottom) {
    merged_.swap(values_[0]);
    has_value = true;
  } else if (!values_.empty()) {
    std::vector<Slice> vals(values_.begin(), values_.end());
    has_value = merger_->Merge(user_key, vals, at_bottom, &merged_);
  }
  if (has_value) {
    ikey_.clear();
    AppendInternalKey(&ikey_,
                      ParsedInternalKey(user_key, newest_seq_, kTypeValue));
    s = emit_(Slice(ikey_), Slice(merged_));
  }
  if (s.ok() && saw_tombstone_ && !base) {
    // The tombstone must survive above the base level EVEN IF a merged
    // value was emitted: unlike plain LSM reads (which stop at the newest
    // version), the Lazy index's read path UNIONS fragments from every
    // level, so only the tombstone keeps the pre-tombstone fragments in
    // lower levels shadowed. Its sequence number is lower than the merged
    // value's, preserving internal-key order.
    ikey_.clear();
    AppendInternalKey(&ikey_, ParsedInternalKey(user_key, tombstone_seq_,
                                                kTypeDeletion));
    s = emit_(Slice(ikey_), Slice());
  }
  values_.clear();
  saw_tombstone_ = false;
  return s;
}

}  // namespace leveldbpp
