// File naming scheme within a DB directory (LevelDB conventions):
//   <number>.ldb      SSTable
//   <number>.log      write-ahead log
//   <number>.svw      retired sorted-view artifact; deleted on sight
//   MANIFEST-<number> version-edit log
//   CURRENT           name of the live MANIFEST
//   LOCK              advisory lock marker

#ifndef LEVELDBPP_DB_FILENAME_H_
#define LEVELDBPP_DB_FILENAME_H_

#include <cstdint>
#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace leveldbpp {

class Env;

enum FileType {
  kLogFile,
  kDBLockFile,
  kTableFile,
  kDescriptorFile,
  kCurrentFile,
  kTempFile,
  kSortedViewFile,
};

std::string LogFileName(const std::string& dbname, uint64_t number);
std::string TableFileName(const std::string& dbname, uint64_t number);
std::string DescriptorFileName(const std::string& dbname, uint64_t number);
std::string CurrentFileName(const std::string& dbname);
std::string LockFileName(const std::string& dbname);
std::string TempFileName(const std::string& dbname, uint64_t number);

/// If `filename` is a leveldbpp file, store its type in *type, the number
/// encoded in it in *number, and return true.
bool ParseFileName(const std::string& filename, uint64_t* number,
                   FileType* type);

/// Make CURRENT point to the descriptor file with the given number.
Status SetCurrentFile(Env* env, const std::string& dbname,
                      uint64_t descriptor_number);

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_FILENAME_H_
