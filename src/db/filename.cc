#include "db/filename.h"

#include <cassert>
#include <cstdio>

#include "env/env.h"

namespace leveldbpp {

static std::string MakeFileName(const std::string& dbname, uint64_t number,
                                const char* suffix) {
  char buf[100];
  std::snprintf(buf, sizeof(buf), "/%06llu.%s",
                static_cast<unsigned long long>(number), suffix);
  return dbname + buf;
}

std::string LogFileName(const std::string& dbname, uint64_t number) {
  assert(number > 0);
  return MakeFileName(dbname, number, "log");
}

std::string TableFileName(const std::string& dbname, uint64_t number) {
  assert(number > 0);
  return MakeFileName(dbname, number, "ldb");
}

std::string DescriptorFileName(const std::string& dbname, uint64_t number) {
  assert(number > 0);
  char buf[100];
  std::snprintf(buf, sizeof(buf), "/MANIFEST-%06llu",
                static_cast<unsigned long long>(number));
  return dbname + buf;
}

std::string CurrentFileName(const std::string& dbname) {
  return dbname + "/CURRENT";
}

std::string LockFileName(const std::string& dbname) { return dbname + "/LOCK"; }

std::string TempFileName(const std::string& dbname, uint64_t number) {
  assert(number > 0);
  return MakeFileName(dbname, number, "dbtmp");
}

// Owned filenames have the form:
//    dbname/CURRENT
//    dbname/LOCK
//    dbname/MANIFEST-[0-9]+
//    dbname/[0-9]+.(log|ldb|svw|dbtmp)
bool ParseFileName(const std::string& filename, uint64_t* number,
                   FileType* type) {
  Slice rest(filename);
  if (rest == Slice("CURRENT")) {
    *number = 0;
    *type = kCurrentFile;
  } else if (rest == Slice("LOCK")) {
    *number = 0;
    *type = kDBLockFile;
  } else if (rest.starts_with("MANIFEST-")) {
    rest.remove_prefix(strlen("MANIFEST-"));
    uint64_t num = 0;
    if (rest.empty()) return false;
    for (size_t i = 0; i < rest.size(); i++) {
      char c = rest[i];
      if (c < '0' || c > '9') return false;
      num = num * 10 + (c - '0');
    }
    *number = num;
    *type = kDescriptorFile;
  } else {
    // Expect <number>.<suffix>
    uint64_t num = 0;
    size_t i = 0;
    for (; i < rest.size() && rest[i] >= '0' && rest[i] <= '9'; i++) {
      num = num * 10 + (rest[i] - '0');
    }
    if (i == 0 || i >= rest.size() || rest[i] != '.') return false;
    Slice suffix(rest.data() + i, rest.size() - i);
    if (suffix == Slice(".log")) {
      *type = kLogFile;
    } else if (suffix == Slice(".ldb")) {
      *type = kTableFile;
    } else if (suffix == Slice(".svw")) {
      *type = kSortedViewFile;
    } else if (suffix == Slice(".dbtmp")) {
      *type = kTempFile;
    } else {
      return false;
    }
    *number = num;
  }
  return true;
}

Status SetCurrentFile(Env* env, const std::string& dbname,
                      uint64_t descriptor_number) {
  // Remove leading "dbname/" and add newline to manifest file name.
  std::string manifest = DescriptorFileName(dbname, descriptor_number);
  Slice contents = manifest;
  assert(contents.starts_with(dbname + "/"));
  contents.remove_prefix(dbname.size() + 1);
  std::string tmp = TempFileName(dbname, descriptor_number);

  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(tmp, &file);
  if (!s.ok()) return s;
  s = file->Append(contents.ToString() + "\n");
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  file.reset();
  if (s.ok()) {
    s = env->RenameFile(tmp, CurrentFileName(dbname));
  }
  if (s.ok()) {
    // The rename is only durable once the directory entry itself is synced;
    // without this, a power cut can roll CURRENT back to the previous
    // manifest even though the rename "succeeded".
    s = env->SyncDir(dbname);
  }
  if (!s.ok()) {
    env->RemoveFile(tmp);
  }
  return s;
}

}  // namespace leveldbpp
