// sample_prof: a sampling CPU profiler loaded into any binary with
// LD_PRELOAD. A process CPU-time timer raises SIGPROF once per interval
// of CPU time (user + system, so time spent in page faults lands on the
// faulting instruction); the handler records the interrupted program
// counter and walks the frame-pointer chain into a preallocated
// buffer. At exit the samples and the process's executable mappings
// are written to one text file, which tools/sample_prof/symbolize.py
// turns into a flat and an inclusive profile. See README.md.
//
// SAMPLE_PROF_OUT names the output file (default
// sample_prof.<pid>.txt in the working directory).

#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

/** Timer interval; the kernel rounds it up to its tick (4 ms at
 * HZ=250). */
constexpr long kIntervalUs = 1000;
constexpr int kMaxDepth = 64;
/** Sample buffer: 16 MB of addresses, each sample a depth word and
 * its frames. */
constexpr size_t kBufferWords = size_t{1} << 21;

uint64_t* g_buffer = nullptr;
timer_t g_timer;
std::atomic<size_t> g_used{0};
std::atomic<uint64_t> g_dropped{0};
// The main thread's stack. Its range follows RLIMIT_STACK and is
// mostly unmapped below the live part, so the walk reads only between
// the interrupted stack pointer and the top: a register that holds no
// frame pointer is never dereferenced.
uintptr_t g_stack_lo = 0;
uintptr_t g_stack_hi = 0;

void OnSigprof(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  auto fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  const auto sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
  auto fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
#error "sample_prof supports x86-64 and AArch64"
#endif
  uint64_t frames[kMaxDepth];
  size_t depth = 0;
  frames[depth++] = pc;
  // A frame is [caller's frame pointer, return address]; the chain
  // must climb the live stack. A sample taken off the main stack (on
  // another thread) keeps only its pc.
  const bool on_main_stack = sp >= g_stack_lo && sp < g_stack_hi;
  while (on_main_stack && depth < kMaxDepth && fp % sizeof(uintptr_t) == 0 &&
         fp >= sp && fp + 2 * sizeof(uintptr_t) <= g_stack_hi) {
    const auto* frame = reinterpret_cast<const uintptr_t*>(fp);
    if (frame[1] == 0) break;
    frames[depth++] = frame[1];
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  const size_t at = g_used.fetch_add(depth + 1, std::memory_order_relaxed);
  if (at + depth + 1 > kBufferWords) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_buffer[at] = depth;
  std::memcpy(g_buffer + at + 1, frames, depth * sizeof(uint64_t));
}

__attribute__((constructor)) void Start() {
  void* mem = mmap(nullptr, kBufferWords * sizeof(uint64_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    std::perror("sample_prof: mmap");
    return;
  }
  g_buffer = static_cast<uint64_t*>(mem);
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      g_stack_lo = reinterpret_cast<uintptr_t>(addr);
      g_stack_hi = g_stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  struct sigaction sa {};
  sa.sa_sigaction = OnSigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  // A POSIX timer rather than ITIMER_PROF: execve deletes it, so a
  // preloaded launcher (setarch, env) that execs the target leaves no
  // timer armed to fire before the target's handler is installed.
  sigevent ev{};
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &g_timer) != 0) {
    std::perror("sample_prof: timer_create");
    return;
  }
  itimerspec spec{};
  spec.it_interval.tv_nsec = kIntervalUs * 1000;
  spec.it_value = spec.it_interval;
  timer_settime(g_timer, 0, &spec, nullptr);
}

__attribute__((destructor)) void Stop() {
  if (g_buffer == nullptr) return;
  signal(SIGPROF, SIG_IGN);
  timer_delete(g_timer);

  char path[4096];
  if (const char* v = std::getenv("SAMPLE_PROF_OUT")) {
    std::snprintf(path, sizeof(path), "%s", v);
  } else {
    std::snprintf(path, sizeof(path), "sample_prof.%d.txt",
                  static_cast<int>(getpid()));
  }
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror("sample_prof: cannot write profile");
    return;
  }
  std::fprintf(out, "sample_prof 1\ndropped %llu\n",
               static_cast<unsigned long long>(g_dropped.load()));
  // Executable mappings, so addresses resolve without this process.
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      unsigned long long start = 0, end = 0, offset = 0;
      char perms[8] = {};
      int path_at = 0;
      if (std::sscanf(line, "%llx-%llx %7s %llx %*s %*s %n", &start, &end,
                      perms, &offset, &path_at) < 4 ||
          perms[2] != 'x') {
        continue;
      }
      line[std::strcspn(line, "\n")] = '\0';
      std::fprintf(out, "map %llx %llx %llx %s\n", start, end, offset,
                   line + path_at);
    }
    std::fclose(maps);
  }
  const size_t used = std::min(g_used.load(), kBufferWords);
  for (size_t at = 0; at < used;) {
    const uint64_t depth = g_buffer[at];
    if (depth == 0 || at + 1 + depth > used) break;
    std::fputc('s', out);
    for (uint64_t i = 0; i < depth; ++i) {
      std::fprintf(out, " %llx",
                   static_cast<unsigned long long>(g_buffer[at + 1 + i]));
    }
    std::fputc('\n', out);
    at += 1 + depth;
  }
  std::fclose(out);
}

}  // namespace
