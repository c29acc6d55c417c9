// sigprof: a SIGPROF sampling profiler for one process, loaded with
// LD_PRELOAD. scripts/profile.sh builds it, runs perfbench under it and
// hands the output to tools/profile/symbolize.py.
//
// Every millisecond of process CPU time (ITIMER_PROF) the kernel sends
// SIGPROF to a thread that is running. The handler records the interrupted
// PC and the return addresses on the frame-pointer chain, so the profiled
// code must be built with -fno-omit-frame-pointer; a frame without one
// (libc, say) hides its caller, not the rest of the stack. The walk reads
// only the sampled thread's own stack: every thread records its stack's
// top before it runs (pthread_create is wrapped), and the walk stops at a
// frame pointer that is not strictly above the last one, below the
// interrupted stack pointer, misaligned or past that top.
//
// Unlike gprof it samples time spent in syscalls and libc as well, and it
// adds no instrumentation to small functions. At exit the samples go to
// sigprof.<pid>.samples in the working directory (one record per sample,
// native-endian uint64s: depth, then depth PCs, innermost first), and a
// copy of /proc/self/maps to sigprof.<pid>.maps, so addresses can be
// resolved after the process is gone.
//
// Build: c++ -O2 -fPIC -shared -o libsigprof.so sigprof.cc -ldl -lpthread

#include <dlfcn.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr size_t kRecordWords = 64;  // Depth word + up to 63 PCs
constexpr size_t kMaxRecords = 1 << 18;
constexpr long kIntervalMicros = 1000;

uint64_t* g_records = nullptr;  // kMaxRecords records, mmap'd at load
std::atomic<size_t> g_next{0};

// The top (highest address) of this thread's stack; 0 when unknown, in
// which case a sample records only the interrupted PC.
__attribute__((tls_model("initial-exec"))) thread_local uintptr_t
    t_stack_top = 0;

void NoteStackTop() {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  size_t size = 0;
  if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
    t_stack_top = reinterpret_cast<uintptr_t>(addr) + size;
  }
  pthread_attr_destroy(&attr);
}

void OnSigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxRecords) {
    uint64_t* rec = g_records + slot * kRecordWords;
    const auto* uc = static_cast<const ucontext_t*>(context);
    size_t depth = 0;
#if defined(__x86_64__)
    rec[1 + depth++] = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t low = uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
    rec[1 + depth++] = uc->uc_mcontext.pc;
    uintptr_t fp = uc->uc_mcontext.regs[29];
    uintptr_t low = uc->uc_mcontext.sp;
#else
#error "sigprof supports x86-64 and AArch64"
#endif
    const uintptr_t top = t_stack_top;
    while (depth < kRecordWords - 1 && fp >= low && fp % 8 == 0 &&
           top != 0 && fp + 16 <= top) {
      const auto* frame = reinterpret_cast<const uintptr_t*>(fp);
      const uintptr_t ret = frame[1];
      if (ret == 0) break;
      rec[1 + depth++] = ret;
      low = fp + 16;
      fp = frame[0];
    }
    // The depth goes in last, so a record still being filled when the
    // process exits reads as empty.
    __atomic_store_n(&rec[0], depth, __ATOMIC_RELEASE);
  }
  errno = saved_errno;
}

struct StartArgs {
  void* (*fn)(void*);
  void* arg;
};

void* Trampoline(void* p) {
  StartArgs args = *static_cast<StartArgs*>(p);
  std::free(p);
  NoteStackTop();
  return args.fn(args.arg);
}

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool CopyFile(const char* from, const char* to) {
  const int in = open(from, O_RDONLY);
  if (in < 0) return false;
  const int out = open(to, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  bool ok = out >= 0;
  char buf[8192];
  ssize_t r;
  while (ok && (r = read(in, buf, sizeof(buf))) > 0) {
    ok = WriteAll(out, buf, static_cast<size_t>(r));
  }
  close(in);
  if (out >= 0) close(out);
  return ok;
}

__attribute__((constructor)) void Start() {
  void* mem = mmap(nullptr, kMaxRecords * kRecordWords * sizeof(uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    std::fprintf(stderr, "sigprof: cannot map the sample buffer\n");
    return;
  }
  g_records = static_cast<uint64_t*>(mem);
  NoteStackTop();
  struct sigaction sa = {};
  sa.sa_sigaction = OnSigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  struct itimerval timer = {};
  timer.it_interval.tv_usec = kIntervalMicros;
  timer.it_value.tv_usec = kIntervalMicros;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void Stop() {
  if (g_records == nullptr) return;
  struct itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  const size_t taken = g_next.load();
  const size_t n = taken < kMaxRecords ? taken : kMaxRecords;
  char path[64];
  std::snprintf(path, sizeof(path), "sigprof.%d.samples",
                static_cast<int>(getpid()));
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  bool ok = fd >= 0;
  for (size_t i = 0; ok && i < n; i++) {
    const uint64_t* rec = g_records + i * kRecordWords;
    const size_t depth = __atomic_load_n(&rec[0], __ATOMIC_ACQUIRE);
    if (depth != 0) ok = WriteAll(fd, rec, (1 + depth) * sizeof(uint64_t));
  }
  if (fd >= 0) close(fd);
  char maps[64];
  std::snprintf(maps, sizeof(maps), "sigprof.%d.maps",
                static_cast<int>(getpid()));
  ok = ok && CopyFile("/proc/self/maps", maps);
  std::fprintf(stderr, "sigprof: %zu samples (%zu dropped) to %s%s\n", n,
               taken - n, path, ok ? "" : " FAILED");
}

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*fn)(void*), void* arg) {
  using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);
  static const Create real =
      reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
  auto* args = static_cast<StartArgs*>(std::malloc(sizeof(StartArgs)));
  if (args == nullptr) return EAGAIN;
  *args = StartArgs{fn, arg};
  const int rc = real(thread, attr, Trampoline, args);
  if (rc != 0) std::free(args);
  return rc;
}
