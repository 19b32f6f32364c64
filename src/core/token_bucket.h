#ifndef REFLEX_CORE_TOKEN_BUCKET_H_
#define REFLEX_CORE_TOKEN_BUCKET_H_

#include <atomic>
#include <cmath>
#include <cstdint>

namespace reflex::core {

/**
 * Global token bucket shared by all dataplane threads (paper section
 * 3.2.2). LC tenants with spare tokens donate into it; BE tenants
 * claim from it. Implemented with lock-free atomic read-modify-write
 * so that threads never serialize on a lock -- the code is genuinely
 * thread-safe (exercised under std::thread in tests) even though the
 * discrete-event simulation itself is single-threaded.
 *
 * Tokens are stored in fixed point (micro-tokens) because fractional
 * tokens are common: a scheduling round often generates less than one
 * token (paper: "a typical round may generate only a fraction of a
 * token").
 */
class GlobalTokenBucket {
 public:
  GlobalTokenBucket() : micro_tokens_(0) {}

  /** Adds `tokens` (>= 0) to the bucket. */
  void Donate(double tokens) {
    if (tokens <= 0.0) return;
    micro_tokens_.fetch_add(ToMicro(tokens), std::memory_order_relaxed);
  }

  /**
   * Adds `count` donations of `tokens` each in one step. Each donation
   * rounds to micro-tokens on its own, so the bucket ends exactly where
   * `count` calls of Donate(tokens) would leave it.
   */
  void DonateEach(double tokens, int64_t count) {
    if (tokens <= 0.0 || count <= 0) return;
    micro_tokens_.fetch_add(count * ToMicro(tokens),
                            std::memory_order_relaxed);
  }

  /**
   * Atomically claims up to `want` tokens; returns the amount claimed
   * (possibly 0, never negative, never more than the bucket held).
   */
  double TryClaim(double want) {
    if (want <= 0.0) return 0.0;
    const int64_t want_micro = ToMicro(want);
    int64_t available = micro_tokens_.load(std::memory_order_relaxed);
    for (;;) {
      if (available <= 0) return 0.0;
      const int64_t take = available < want_micro ? available : want_micro;
      if (micro_tokens_.compare_exchange_weak(available, available - take,
                                              std::memory_order_relaxed)) {
        return FromMicro(take);
      }
    }
  }

  /**
   * Empties the bucket (the periodic anti-hoarding reset) and returns
   * the number of tokens discarded, so callers can keep conservation
   * accounting (tokens leave the system only through an explicit
   * spend, a reset, or a tenant retiring).
   */
  double Reset() {
    return FromMicro(micro_tokens_.exchange(0, std::memory_order_relaxed));
  }

  double Tokens() const {
    return FromMicro(micro_tokens_.load(std::memory_order_relaxed));
  }

 private:
  static int64_t ToMicro(double tokens) {
    // llround, not truncation: donations like 0.29 tokens land a hair
    // below an integer micro-token count (0.29 * 1e6 ==
    // 289999.99999999994), and truncating every sub-token donation
    // toward zero silently bleeds tokens out of the system -- about
    // one token per million fractional donations, which a long-running
    // scheduler performs continuously.
    return std::llround(tokens * 1e6);
  }
  static double FromMicro(int64_t micro) {
    return static_cast<double>(micro) / 1e6;
  }

  std::atomic<int64_t> micro_tokens_;
};

}  // namespace reflex::core

#endif  // REFLEX_CORE_TOKEN_BUCKET_H_
