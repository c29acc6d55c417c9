#include "compress/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/random.h"

namespace leveldbpp {
namespace {

// Decodes with both buffers heap-allocated at their exact sizes, so ASan
// flags any read past the stream or write past the claimed length.
bool DecodeExact(const std::string& compressed, std::string* out) {
  std::unique_ptr<char[]> in(new char[compressed.size()]);
  memcpy(in.get(), compressed.data(), compressed.size());
  const Slice input(in.get(), compressed.size());
  uint32_t ulen = 0;
  if (!simplelz::GetUncompressedLength(input, &ulen)) return false;
  std::unique_ptr<char[]> output(new char[ulen]);
  if (!simplelz::Uncompress(input, output.get())) return false;
  out->assign(output.get(), ulen);
  return true;
}

// The format read one byte at a time, with the same rejections: the oracle
// the fast decoder must agree with, input for input.
bool ReferenceDecode(const std::string& compressed, std::string* out) {
  Slice s(compressed);
  uint32_t ulen;
  if (!GetVarint32(&s, &ulen)) return false;
  std::string result;
  size_t i = 0;
  while (i < s.size()) {
    const uint8_t tag = static_cast<uint8_t>(s[i++]);
    if ((tag & 0x80) == 0) {
      if (tag == 0 || i + tag > s.size() || result.size() + tag > ulen) {
        return false;
      }
      result.append(s.data() + i, tag);
      i += tag;
    } else {
      const size_t len = (tag & 0x3F) + 4;
      if (i + 2 > s.size()) return false;
      const size_t offset =
          static_cast<uint8_t>(s[i]) |
          (static_cast<size_t>(static_cast<uint8_t>(s[i + 1])) << 8);
      i += 2;
      if (offset == 0 || offset > result.size() ||
          result.size() + len > ulen) {
        return false;
      }
      for (size_t j = 0; j < len; j++) {
        result.push_back(result[result.size() - offset]);
      }
    }
  }
  if (result.size() != ulen) return false;
  *out = std::move(result);
  return true;
}

std::string RoundTrip(const std::string& input) {
  std::string compressed;
  simplelz::Compress(Slice(input), &compressed);
  uint32_t ulen = 0;
  EXPECT_TRUE(simplelz::GetUncompressedLength(Slice(compressed), &ulen));
  EXPECT_EQ(input.size(), ulen);
  std::string output;
  EXPECT_TRUE(DecodeExact(compressed, &output));
  return output;
}

// Builds a stream op by op, so a test can place each literal and match
// exactly where a decoder branch changes (offset 8, 16 bytes from an end).
class StreamWriter {
 public:
  void Literal(const std::string& bytes) {
    ops_.push_back(static_cast<char>(bytes.size()));
    ops_ += bytes;
    expected_ += bytes;
  }
  void Match(size_t offset, size_t len) {
    ops_.push_back(static_cast<char>(0x80 | (len - 4)));
    ops_.push_back(static_cast<char>(offset & 0xFF));
    ops_.push_back(static_cast<char>(offset >> 8));
    for (size_t i = 0; i < len; i++) {
      expected_.push_back(expected_[expected_.size() - offset]);
    }
  }
  std::string Finish() const {
    std::string out;
    PutVarint32(&out, static_cast<uint32_t>(expected_.size()));
    return out + ops_;
  }
  const std::string& expected() const { return expected_; }

 private:
  std::string ops_;
  std::string expected_;
};

std::string RandomBytes(Random64* rnd, size_t n) {
  std::string s;
  for (size_t i = 0; i < n; i++) s.push_back(static_cast<char>(rnd->Next()));
  return s;
}

// Decodes a hand-built stream and checks it against what the writer says
// it encodes.
void ExpectDecodes(const StreamWriter& w, const std::string& what) {
  std::string out;
  ASSERT_TRUE(DecodeExact(w.Finish(), &out)) << what;
  ASSERT_EQ(w.expected(), out) << what;
}

TEST(SimpleLZ, Empty) { EXPECT_EQ("", RoundTrip("")); }

TEST(SimpleLZ, Short) { EXPECT_EQ("abc", RoundTrip("abc")); }

TEST(SimpleLZ, RepetitiveCompresses) {
  std::string input;
  for (int i = 0; i < 1000; i++) {
    input += "the quick brown fox jumps over the lazy dog ";
  }
  std::string compressed;
  simplelz::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 4);
  EXPECT_EQ(input, RoundTrip(input));
}

TEST(SimpleLZ, RunLengthOverlap) {
  // Overlapping copies (offset < length) exercise the byte-wise copy path.
  std::string input(5000, 'a');
  std::string compressed;
  simplelz::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), 300u);
  EXPECT_EQ(input, RoundTrip(input));
}

TEST(SimpleLZ, IncompressibleRoundTrips) {
  Random64 rnd(42);
  std::string input;
  for (int i = 0; i < 10000; i++) {
    input.push_back(static_cast<char>(rnd.Next() & 0xFF));
  }
  EXPECT_EQ(input, RoundTrip(input));
}

TEST(SimpleLZ, RandomizedStructuredData) {
  Random64 rnd(7);
  for (int trial = 0; trial < 50; trial++) {
    std::string input;
    int pieces = 1 + static_cast<int>(rnd.Uniform(40));
    for (int i = 0; i < pieces; i++) {
      if (rnd.Uniform(2) == 0) {
        input.append(static_cast<size_t>(rnd.Uniform(100)),
                     static_cast<char>('a' + rnd.Uniform(4)));
      } else {
        for (uint64_t j = rnd.Uniform(50); j > 0; j--) {
          input.push_back(static_cast<char>(rnd.Next() & 0xFF));
        }
      }
    }
    EXPECT_EQ(input, RoundTrip(input));
  }
}

TEST(SimpleLZ, RejectsTruncated) {
  std::string input(1000, 'x');
  std::string compressed;
  simplelz::Compress(Slice(input), &compressed);
  for (size_t cut = 1; cut < compressed.size(); cut += 3) {
    std::string out;
    const std::string truncated = compressed.substr(0, compressed.size() - cut);
    EXPECT_FALSE(DecodeExact(truncated, &out)) << "cut " << cut;
  }
}

// Every match offset on both sides of the 8-byte chunk threshold, every
// match length, ending exactly at the end of the output or 1..40 bytes
// before it (where the chunked copy must give way to the byte loop).
TEST(SimpleLZ, EveryMatchCopyBranch) {
  Random64 rnd(11);
  for (size_t offset = 1; offset <= 20; offset++) {
    for (size_t len = 4; len <= 67; len++) {
      for (size_t tail : {0, 1, 3, 7, 8, 9, 15, 16, 17, 40}) {
        StreamWriter w;
        w.Literal(RandomBytes(&rnd, offset));
        w.Match(offset, len);
        if (tail > 0) w.Literal(RandomBytes(&rnd, tail));
        ExpectDecodes(w, "offset=" + std::to_string(offset) + " len=" +
                             std::to_string(len) + " tail=" +
                             std::to_string(tail));
      }
    }
  }
}

// Literal runs of every length, ending exactly at the end of the output,
// within 16 bytes of it, or with less than 16 bytes of input left (but
// plenty of output) or the reverse.
TEST(SimpleLZ, LiteralRunsNearBufferEnds) {
  Random64 rnd(12);
  for (size_t run = 1; run <= 127; run++) {
    for (int suffix = 0; suffix < 5; suffix++) {
      StreamWriter w;
      w.Literal(RandomBytes(&rnd, 1 + rnd.Uniform(30)));
      w.Literal(RandomBytes(&rnd, run));
      switch (suffix) {
        case 0:  // The literal is the last op: both ends are exact.
          break;
        case 1:  // 3 bytes of input left, 67 of output.
          w.Match(1, 67);
          break;
        case 2:  // 16 bytes of input left, 8 of output.
          for (int i = 0; i < 8; i++) w.Literal(RandomBytes(&rnd, 1));
          break;
        case 3:  // A longer run after it: room on both sides.
          w.Literal(RandomBytes(&rnd, 100));
          break;
        case 4:  // Short runs, then a match back into this run.
          w.Literal(RandomBytes(&rnd, 5));
          w.Match(run + 5, 4);
          break;
      }
      ExpectDecodes(w, "run=" + std::to_string(run) + " suffix=" +
                           std::to_string(suffix));
    }
  }
  StreamWriter longest;
  longest.Literal(RandomBytes(&rnd, 127));
  ExpectDecodes(longest, "a single 127-byte run");
}

// Seeded mutation fuzz over compressed tweet-like blocks: bit flips,
// truncations, forged match offsets, forged op lengths and forged length
// headers. The decoder must agree with the byte-at-a-time reference on
// every mutant, accept or reject, and never touch memory outside the exact
// buffers (ASan checks that part).
TEST(SimpleLZ, MutationFuzzMatchesReference) {
  Random64 rnd(2018);
  int accepted = 0, rejected = 0;
  for (int base = 0; base < 40; base++) {
    std::string input;
    const size_t target = 200 + rnd.Uniform(4000);
    while (input.size() < target) {
      const char fill = static_cast<char>('a' + rnd.Uniform(3));
      input += "{\"UserID\":\"u" + std::to_string(rnd.Uniform(50)) +
               "\",\"Body\":\"" + RandomBytes(&rnd, rnd.Uniform(12)) +
               std::string(rnd.Uniform(20), fill) + "\"}";
    }
    std::string compressed;
    simplelz::Compress(Slice(input), &compressed);
    Slice body(compressed);
    uint32_t ulen = 0;
    ASSERT_TRUE(GetVarint32(&body, &ulen));
    const size_t header = compressed.size() - body.size();

    // Op boundaries, so forgeries land on real tags and offsets.
    std::vector<size_t> tags;
    for (size_t i = header; i < compressed.size();) {
      tags.push_back(i);
      const uint8_t tag = static_cast<uint8_t>(compressed[i]);
      i += (tag & 0x80) ? 3 : 1 + tag;
    }

    for (int m = 0; m < 500; m++) {
      std::string mutant = compressed;
      const size_t pos = tags[rnd.Uniform(tags.size())];
      switch (rnd.Uniform(5)) {
        case 0:  // 1-3 bit flips anywhere.
          for (uint64_t f = 1 + rnd.Uniform(3); f > 0; f--) {
            mutant[rnd.Uniform(mutant.size())] ^=
                static_cast<char>(1 << rnd.Uniform(8));
          }
          break;
        case 1:  // Truncation.
          mutant.resize(rnd.Uniform(mutant.size()));
          break;
        case 2:  // A forged match offset (or literal bytes, if not a match).
          if (pos + 2 < mutant.size()) {
            mutant[pos + 1] = static_cast<char>(rnd.Uniform(20));
            mutant[pos + 2] = static_cast<char>(rnd.Uniform(2));
          }
          break;
        case 3:  // A forged op length, either kind.
          mutant[pos] = static_cast<char>(
              (mutant[pos] & 0x80) | rnd.Uniform(0x80));
          break;
        case 4: {  // A forged length header, a little off the truth.
          const int64_t claim =
              int64_t{ulen} + static_cast<int64_t>(rnd.Uniform(41)) - 20;
          std::string forged;
          PutVarint32(&forged,
                      static_cast<uint32_t>(std::max<int64_t>(0, claim)));
          mutant = forged + mutant.substr(header);
          break;
        }
      }
      // A header claiming more than any stream can expand to is rejected
      // before decoding (ReadBlock does so); do not allocate for it here.
      Slice claimed(mutant);
      uint32_t claimed_len = 0;
      if (GetVarint32(&claimed, &claimed_len) &&
          claimed_len > simplelz::kMaxExpansion * mutant.size()) {
        continue;
      }
      std::string fast, reference;
      const bool fast_ok = DecodeExact(mutant, &fast);
      const bool reference_ok = ReferenceDecode(mutant, &reference);
      ASSERT_EQ(reference_ok, fast_ok) << "base " << base << " mutant " << m;
      if (fast_ok) {
        ASSERT_EQ(reference, fast) << "base " << base << " mutant " << m;
        accepted++;
      } else {
        rejected++;
      }
    }
  }
  // Both outcomes must be well represented, or the fuzz proves little.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

}  // namespace
}  // namespace leveldbpp
