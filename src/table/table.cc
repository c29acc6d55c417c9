#include "table/table.h"

#include "cache/cache.h"
#include "env/statistics.h"
#include "table/block.h"
#include "table/filter_block.h"
#include "table/filter_policy.h"
#include "table/quarantine.h"
#include "table/two_level_iterator.h"
#include "table/zonemap_block.h"
#include "util/coding.h"
#include "util/comparator.h"

namespace leveldbpp {

struct Table::Rep {
  ~Rep() {
    delete filter;
    delete[] filter_data;
    for (size_t i = 0; i < sec_filters.size(); i++) {
      delete sec_filters[i];
      delete[] sec_filter_data[i];
    }
    delete[] zonemap_data;
    delete index_block;
  }

  Options options;
  Status status;
  RandomAccessFile* file = nullptr;
  uint64_t cache_id = 0;
  FilterBlockReader* filter = nullptr;
  const char* filter_data = nullptr;

  // Secondary filters, index-aligned with options.secondary_attributes.
  std::vector<FilterBlockReader*> sec_filters;
  std::vector<const char*> sec_filter_data;
  ZoneMapReader zonemaps;
  bool has_zonemaps = false;
  const char* zonemap_data = nullptr;

  BlockHandle metaindex_handle;
  Block* index_block = nullptr;

  // Identity + DB-wide quarantine registry (set via SetProvenance; the
  // registry stays null for tables opened outside a DB, e.g. by tools).
  uint64_t file_number = 0;
  BlockQuarantine* quarantine = nullptr;

  // Decoded data-block handles in file order (block ordinal -> handle),
  // giving the embedded scan O(1) access to any block.
  std::vector<BlockHandle> data_block_handles;
};

Status Table::Open(const Options& options, RandomAccessFile* file,
                   uint64_t size, Table** table) {
  *table = nullptr;
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(size - Footer::kEncodedLength, Footer::kEncodedLength,
                        &footer_input, footer_space);
  if (!s.ok()) return s;

  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) return s;

  // Read the index block. Always verified: a garbled index block would
  // misdirect every lookup in the table, and open-time is the only chance
  // to reject the file as a whole.
  BlockBuffer index_buf;
  BlockContents index_block_contents;
  s = ReadBlock(file, /*verify_checksums=*/true, footer.index_handle(),
                &index_buf, &index_block_contents, options.statistics);
  if (!s.ok()) return s;
  DetachBlockContents(&index_buf, &index_block_contents);

  Rep* rep = new Table::Rep;
  rep->options = options;
  if (rep->options.comparator == nullptr) {
    rep->options.comparator = BytewiseComparator();
  }
  rep->file = file;
  rep->metaindex_handle = footer.metaindex_handle();
  rep->index_block = new Block(index_block_contents);
  rep->cache_id =
      (options.block_cache != nullptr ? options.block_cache->NewId() : 0);

  Table* t = new Table(rep);
  t->ReadMeta(footer);
  t->DecodeDataBlockHandles();
  *table = t;
  return Status::OK();
}

void Table::ReadMeta(const Footer& footer) {
  // Read the metaindex block regardless of filter configuration: zone maps
  // have no policy dependency. Meta blocks are always verified — a corrupt
  // filter parsed as garbage could answer "definitely absent" for keys the
  // table holds; failing the read instead degrades to fail-open (no
  // filter / no zone maps), which is merely slower, never wrong.
  BlockBuffer buf;
  BlockContents contents;
  if (!ReadBlock(rep_->file, /*verify_checksums=*/true,
                 footer.metaindex_handle(), &buf, &contents,
                 rep_->options.statistics)
           .ok()) {
    return;  // Do not propagate errors since meta info is not needed
  }
  DetachBlockContents(&buf, &contents);
  Block* meta = new Block(contents);

  Iterator* iter = meta->NewIterator(BytewiseComparator());

  if (rep_->options.filter_policy != nullptr) {
    std::string key = "filter.";
    key.append(rep_->options.filter_policy->Name());
    iter->Seek(Slice(key));
    if (iter->Valid() && iter->key() == Slice(key)) {
      ReadFilter(iter->value(), &rep_->filter, &rep_->filter_data,
                 rep_->options.filter_policy);
    }
  }

  const FilterPolicy* sec_policy = rep_->options.secondary_filter_policy;
  rep_->sec_filters.assign(rep_->options.secondary_attributes.size(), nullptr);
  rep_->sec_filter_data.assign(rep_->options.secondary_attributes.size(),
                               nullptr);
  if (sec_policy != nullptr) {
    for (size_t i = 0; i < rep_->options.secondary_attributes.size(); i++) {
      std::string key =
          "secfilter." + rep_->options.secondary_attributes[i];
      iter->Seek(Slice(key));
      if (iter->Valid() && iter->key() == Slice(key)) {
        ReadFilter(iter->value(), &rep_->sec_filters[i],
                   &rep_->sec_filter_data[i], sec_policy);
      }
    }
  }

  iter->Seek(Slice("zonemaps"));
  if (iter->Valid() && iter->key() == Slice("zonemaps")) {
    Slice v = iter->value();
    BlockHandle handle;
    if (handle.DecodeFrom(&v).ok()) {
      BlockContents zcontents;
      if (ReadBlock(rep_->file, /*verify_checksums=*/true, handle, &buf,
                    &zcontents, rep_->options.statistics)
              .ok()) {
        DetachBlockContents(&buf, &zcontents);
        if (ZoneMapReader::Decode(zcontents.data, &rep_->zonemaps).ok()) {
          rep_->has_zonemaps = true;
        }
        if (zcontents.heap_allocated) {
          rep_->zonemap_data = zcontents.data.data();
        }
      }
    }
  }

  delete iter;
  delete meta;
}

void Table::ReadFilter(const Slice& filter_handle_value,
                       FilterBlockReader** reader, const char** data_out,
                       const FilterPolicy* policy) {
  Slice v = filter_handle_value;
  BlockHandle filter_handle;
  if (!filter_handle.DecodeFrom(&v).ok()) {
    return;
  }

  BlockBuffer buf;
  BlockContents block;
  if (!ReadBlock(rep_->file, /*verify_checksums=*/true, filter_handle, &buf,
                 &block, rep_->options.statistics)
           .ok()) {
    return;
  }
  DetachBlockContents(&buf, &block);
  if (block.heap_allocated) {
    *data_out = block.data.data();  // Will need to delete later
  }
  *reader = new FilterBlockReader(policy, block.data);
}

void Table::DecodeDataBlockHandles() {
  Iterator* it = rep_->index_block->NewIterator(rep_->options.comparator);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    Slice v = it->value();
    BlockHandle h;
    if (h.DecodeFrom(&v).ok()) {
      rep_->data_block_handles.push_back(h);
    }
  }
  delete it;
}

Table::~Table() { delete rep_; }

static void DeleteBlock(void* arg, void*) {
  delete reinterpret_cast<Block*>(arg);
}

static void DeleteCachedBlock(const Slice&, void* value) {
  Block* block = reinterpret_cast<Block*>(value);
  delete block;
}

static void ReleaseBlock(void* arg, void* h) {
  Cache* cache = reinterpret_cast<Cache*>(arg);
  Cache::Handle* handle = reinterpret_cast<Cache::Handle*>(h);
  cache->Release(handle);
}

Status Table::LoadBlock(const ReadOptions& options, const BlockHandle& handle,
                       Block** block, Cache::Handle** cache_handle) const {
  *block = nullptr;
  *cache_handle = nullptr;
  Cache* block_cache = rep_->options.block_cache;
  Statistics* stats = rep_->options.statistics;
  char cache_key_buffer[16];
  Slice key;
  if (block_cache != nullptr) {
    EncodeFixed64(cache_key_buffer, rep_->cache_id);
    EncodeFixed64(cache_key_buffer + 8, handle.offset());
    key = Slice(cache_key_buffer, sizeof(cache_key_buffer));
    *cache_handle = block_cache->Lookup(key);
    if (*cache_handle != nullptr) {
      *block = reinterpret_cast<Block*>(block_cache->Value(*cache_handle));
      if (stats != nullptr) stats->Record(kBlockCacheHit);
      return Status::OK();
    }
    if (stats != nullptr) stats->Record(kBlockCacheMiss);
  }
  BlockBuffer buf;
  BlockContents contents;
  Status s = ReadBlock(rep_->file, options.verify_checksums, handle, &buf,
                       &contents, stats);
  if (!s.ok()) return s;
  DetachBlockContents(&buf, &contents);
  *block = new Block(contents);
  if (block_cache != nullptr && contents.cachable && options.fill_cache) {
    *cache_handle = block_cache->Insert(key, *block, (*block)->size(),
                                        &DeleteCachedBlock);
  }
  return Status::OK();
}

void Table::NoteDamagedBlock(const Status& s, uint64_t offset) const {
  if (s.IsCorruption() && rep_->quarantine != nullptr &&
      rep_->quarantine->Add(rep_->file_number, offset)) {
    Statistics* stats = rep_->options.statistics;
    if (stats != nullptr) stats->Record(kCorruptionBlocksQuarantined);
  }
}

// Convert an index-entry value (an encoded BlockHandle) into an iterator
// over the contents of the corresponding block, going through the block
// cache if one is configured.
Iterator* Table::BlockReader(void* arg, const ReadOptions& options,
                             const Slice& index_value) {
  Table* table = reinterpret_cast<Table*>(arg);
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;

  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  if (s.ok()) {
    s = table->LoadBlock(options, handle, &block, &cache_handle);
  }
  if (!s.ok()) {
    table->NoteDamagedBlock(s, handle.offset());
    return NewErrorIterator(s);
  }

  Iterator* iter = block->NewIterator(table->rep_->options.comparator);
  if (cache_handle == nullptr) {
    iter->RegisterCleanup([block]() { DeleteBlock(block, nullptr); });
  } else {
    Cache* block_cache = table->rep_->options.block_cache;
    iter->RegisterCleanup([block_cache, cache_handle]() {
      ReleaseBlock(block_cache, cache_handle);
    });
  }
  return iter;
}

Iterator* Table::NewIterator(const ReadOptions& options) const {
  return NewTwoLevelIterator(
      rep_->index_block->NewIterator(rep_->options.comparator),
      &Table::BlockReader, const_cast<Table*>(this), options);
}

Status Table::InternalGet(const ReadOptions& options, const Slice& k,
                          BlockMemo* memo, void* arg,
                          void (*handle_result)(void*, const Slice&,
                                                const Slice&)) {
  const Comparator* cmp = rep_->options.comparator;
  Statistics* stats = rep_->options.statistics;
  Slice found_key, handle_value;
  Status s;
  if (!rep_->index_block->Seek(cmp, k, &memo->key_buf, &found_key,
                               &handle_value, &s)) {
    return s;  // Past the last block, or a damaged index block
  }
  BlockHandle handle;
  Slice hv = handle_value;
  s = handle.DecodeFrom(&hv);
  if (s.ok() && rep_->filter != nullptr) {
    const size_t block_idx = BlockIndexForOffset(handle.offset());
    if (stats != nullptr) stats->Record(kBloomPrimaryChecked);
    if (!rep_->filter->KeyMayMatch(block_idx, k)) {
      if (stats != nullptr) stats->Record(kBloomPrimaryUseful);
      return Status::OK();
    }
  }

  // The data block: the memo's (no block cache), or a cached one, or one
  // the cache did not take, which this lookup deletes.
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;
  const bool memoized = rep_->options.block_cache == nullptr;
  if (s.ok() && !memoized) {
    s = LoadBlock(options, handle, &block, &cache_handle);
  } else if (s.ok() && memo->table == this && memo->offset == handle.offset()) {
    block = &*memo->block;
    if (stats != nullptr) stats->Record(kBlockReadReused);
  } else if (s.ok()) {
    memo->Clear();  // The read below overwrites the buffers it holds
    BlockContents contents;
    s = ReadBlock(rep_->file, options.verify_checksums, handle, &memo->buf,
                  &contents, stats);
    if (s.ok()) {
      block = &memo->block.emplace(contents);
      memo->table = this;
      memo->offset = handle.offset();
    }
  }
  // A handle that does not decode fails like an unreadable block.
  if (!s.ok()) NoteDamagedBlock(s, handle.offset());

  if (block != nullptr) {
    Slice key, value;
    if (block->Seek(cmp, k, &memo->key_buf, &key, &value, &s)) {
      (*handle_result)(arg, key, value);
    }
    if (memoized) {
      if (!s.ok()) memo->Clear();  // A block that does not parse is not kept
    } else if (cache_handle != nullptr) {
      rep_->options.block_cache->Release(cache_handle);
    } else {
      delete block;
    }
  }
  // Quarantine semantics (non-paranoid, registry attached): a
  // checksum-failed block holds no trustworthy data, so treat it as
  // holding none at all — the caller falls through to older levels.
  // NoteDamagedBlock already recorded a block that failed its read;
  // paranoid mode keeps the fail-fast error.
  if (s.IsCorruption() && !rep_->options.paranoid_checks &&
      rep_->quarantine != nullptr) {
    s = Status::OK();
  }
  return s;
}

size_t Table::BlockIndexForOffset(uint64_t offset) const {
  // data_block_handles is sorted by offset (file order).
  size_t lo = 0, hi = rep_->data_block_handles.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (rep_->data_block_handles[mid].offset() < offset) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t Table::BlockIndexForKey(const Slice& key) const {
  std::unique_ptr<Iterator> iiter(
      rep_->index_block->NewIterator(rep_->options.comparator));
  iiter->Seek(key);
  if (!iiter->Valid()) return NumDataBlocks();
  Slice hv = iiter->value();
  BlockHandle handle;
  if (!handle.DecodeFrom(&hv).ok()) return NumDataBlocks();
  return BlockIndexForOffset(handle.offset());
}

bool Table::KeyMayExistNoIO(const Slice& key) const {
  Iterator* iiter = rep_->index_block->NewIterator(rep_->options.comparator);
  iiter->Seek(key);
  bool may_exist = false;
  if (iiter->Valid()) {
    may_exist = true;
    if (rep_->filter != nullptr) {
      Slice hv = iiter->value();
      BlockHandle handle;
      if (handle.DecodeFrom(&hv).ok()) {
        size_t block_idx = BlockIndexForOffset(handle.offset());
        Statistics* stats = rep_->options.statistics;
        if (stats != nullptr) stats->Record(kBloomPrimaryChecked);
        if (!rep_->filter->KeyMayMatch(block_idx, key)) {
          may_exist = false;
          if (stats != nullptr) stats->Record(kBloomPrimaryUseful);
        }
      }
    }
  }
  delete iiter;
  return may_exist;
}

size_t Table::NumDataBlocks() const {
  return rep_->data_block_handles.size();
}

bool Table::SecondaryBlockMayContain(const std::string& attr,
                                     const Slice& value,
                                     size_t block_idx) const {
  Statistics* stats = rep_->options.statistics;
  // Zone map first: a miss there is cheaper than a bloom probe and the paper
  // uses zone maps "to further accelerate point lookup queries".
  if (rep_->has_zonemaps) {
    if (!rep_->zonemaps.BlockMayOverlap(attr, block_idx, value, value)) {
      if (stats != nullptr) stats->Record(kZoneMapBlockPruned);
      return false;
    }
  }
  // Find the attribute's filter reader.
  for (size_t i = 0; i < rep_->options.secondary_attributes.size(); i++) {
    if (rep_->options.secondary_attributes[i] == attr) {
      FilterBlockReader* f = rep_->sec_filters[i];
      if (f == nullptr) return true;  // No filter: fail open
      if (stats != nullptr) stats->Record(kBloomSecondaryChecked);
      bool may = f->KeyMayMatch(block_idx, value);
      if (!may && stats != nullptr) stats->Record(kBloomSecondaryUseful);
      return may;
    }
  }
  return true;  // Unknown attribute: fail open
}

bool Table::SecondaryBlockMayOverlap(const std::string& attr, const Slice& lo,
                                     const Slice& hi,
                                     size_t block_idx) const {
  if (!rep_->has_zonemaps) return true;
  bool may = rep_->zonemaps.BlockMayOverlap(attr, block_idx, lo, hi);
  if (!may && rep_->options.statistics != nullptr) {
    rep_->options.statistics->Record(kZoneMapBlockPruned);
  }
  return may;
}

bool Table::SecondaryFileMayOverlap(const std::string& attr, const Slice& lo,
                                    const Slice& hi) const {
  if (!rep_->has_zonemaps) return true;
  bool may = rep_->zonemaps.FileMayOverlap(attr, lo, hi);
  if (!may && rep_->options.statistics != nullptr) {
    rep_->options.statistics->Record(kZoneMapFilePruned);
  }
  return may;
}

void Table::SetProvenance(uint64_t file_number, BlockQuarantine* quarantine) {
  rep_->file_number = file_number;
  rep_->quarantine = quarantine;
}

Iterator* Table::NewDataBlockIterator(const ReadOptions& options,
                                      size_t block_idx) const {
  if (block_idx >= rep_->data_block_handles.size()) {
    return NewErrorIterator(Status::InvalidArgument("block index OOB"));
  }
  std::string handle_encoding;
  rep_->data_block_handles[block_idx].EncodeTo(&handle_encoding);
  return BlockReader(const_cast<Table*>(this), options,
                     Slice(handle_encoding));
}

}  // namespace leveldbpp
