// ReadBlock against forged compressed blocks: a damaged length header must
// be rejected as Corruption before anything is allocated for it, even with
// checksum verification off (the checksum is what would normally catch it).
//
// This binary replaces the global array operator new to record the largest
// single request, which is how the tests see what ReadBlock allocated. The
// same hook shows that a reused BlockBuffer makes a read allocate nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "compress/codec.h"
#include "env/env.h"
#include "env/statistics.h"
#include "table/format.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace {
std::atomic<size_t> largest_array_new{0};
}  // namespace

void* operator new[](size_t n) {
  size_t prev = largest_array_new.load(std::memory_order_relaxed);
  while (n > prev && !largest_array_new.compare_exchange_weak(prev, n)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace leveldbpp {
namespace {

class ReadBlockCorruptionTest : public testing::Test {
 protected:
  ReadBlockCorruptionTest() : env_(NewMemEnv()) {
    for (int i = 0; raw_.size() < 3000; i++) {
      raw_ += "{\"UserID\":\"u" + std::to_string(i % 7) +
              "\",\"Body\":\"tweet body " + std::to_string(i) + "\"}";
    }
    simplelz::Compress(Slice(raw_), &payload_);
  }

  // Writes `payload` as a kSimpleLZCompression block with a valid trailer
  // and reads it back through ReadBlock into buf_.
  Status WriteAndRead(const std::string& payload, bool verify_checksums,
                      BlockContents* contents) {
    std::string file = payload;
    file.push_back(static_cast<char>(kSimpleLZCompression));
    PutFixed32(&file, crc32c::Mask(crc32c::Value(file.data(), file.size())));
    const std::string fname = "/block";
    std::unique_ptr<WritableFile> w;
    Status s = env_->NewWritableFile(fname, &w);
    if (s.ok()) s = w->Append(Slice(file));
    if (s.ok()) s = w->Close();
    std::unique_ptr<RandomAccessFile> r;
    if (s.ok()) s = env_->NewRandomAccessFile(fname, &r);
    if (!s.ok()) return s;
    BlockHandle handle;
    handle.set_offset(0);
    handle.set_size(payload.size());
    largest_array_new = 0;
    return ReadBlock(r.get(), verify_checksums, handle, &buf_, contents,
                     &stats_);
  }

  // The payload with its varint length header replaced by `ulength`.
  std::string Forge(uint32_t ulength) const {
    Slice body(payload_);
    uint32_t ignored;
    EXPECT_TRUE(GetVarint32(&body, &ignored));
    std::string forged;
    PutVarint32(&forged, ulength);
    forged.append(body.data(), body.size());
    return forged;
  }

  std::unique_ptr<Env> env_;
  Statistics stats_;
  BlockBuffer buf_;
  std::string raw_;
  std::string payload_;
};

// Control: the hook sees ReadBlock's output allocation for a sound block.
TEST_F(ReadBlockCorruptionTest, SoundBlockDecodes) {
  BlockContents contents;
  ASSERT_TRUE(
      WriteAndRead(payload_, /*verify_checksums=*/true, &contents).ok());
  EXPECT_FALSE(contents.heap_allocated);  // Still buf_'s
  DetachBlockContents(&buf_, &contents);
  ASSERT_TRUE(contents.heap_allocated);
  EXPECT_EQ(raw_, contents.data.ToString());
  EXPECT_EQ(raw_.size(), largest_array_new.load());
  EXPECT_EQ(0u, stats_.Get(kCorruptionBlocksDetected));
  delete[] contents.data.data();
}

// A buffer kept across reads: the second read of the same block reads and
// decodes into the arrays the first one sized, allocating nothing.
TEST_F(ReadBlockCorruptionTest, ReusedBufferAllocatesNothing) {
  BlockContents contents;
  ASSERT_TRUE(
      WriteAndRead(payload_, /*verify_checksums=*/true, &contents).ok());
  const char* first = contents.data.data();
  ASSERT_TRUE(
      WriteAndRead(payload_, /*verify_checksums=*/true, &contents).ok());
  EXPECT_EQ(0u, largest_array_new.load());
  EXPECT_EQ(first, contents.data.data());
  EXPECT_EQ(raw_, contents.data.ToString());
}

TEST_F(ReadBlockCorruptionTest, ForgedHugeLengthAllocatesNothing) {
  const std::string forged = Forge(0xFFFFFFFFu);
  BlockContents contents;
  Status s = WriteAndRead(forged, /*verify_checksums=*/false, &contents);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(1u, stats_.Get(kCorruptionBlocksDetected));
  // Only the raw read buffer was allocated, never the claimed 4 GiB.
  EXPECT_LE(largest_array_new.load(), forged.size() + kBlockTrailerSize);
}

TEST_F(ReadBlockCorruptionTest, LengthJustPastExpansionBoundRejected) {
  const std::string forged = Forge(
      static_cast<uint32_t>(simplelz::kMaxExpansion * payload_.size() + 1));
  // Same header width, so the forged block is as long as the sound one and
  // its claim is one byte past the bound.
  ASSERT_EQ(payload_.size(), forged.size());
  BlockContents contents;
  Status s = WriteAndRead(forged, /*verify_checksums=*/false, &contents);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(1u, stats_.Get(kCorruptionBlocksDetected));
  EXPECT_LE(largest_array_new.load(), forged.size() + kBlockTrailerSize);
}

}  // namespace
}  // namespace leveldbpp
