#ifndef REFLEX_SIM_INLINE_FUNCTION_H_
#define REFLEX_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace reflex::sim {

template <typename Signature, size_t kCapacity = 32>
class InlineFunction;

/**
 * A move-only callable that keeps its target inside the object, never
 * on the heap: the request-path replacement for std::function (whose
 * target is heap-allocated once it holds more than a pointer or is not
 * trivially copyable, such as a lambda that captures a Promise). A
 * target larger than kCapacity bytes does not compile, so a capture
 * that grows shows up at build time, not as an allocation per request.
 * Empty when default- or nullptr-constructed; calling an empty one is
 * undefined.
 */
template <typename R, typename... Args, size_t kCapacity>
class InlineFunction<R(Args...), kCapacity> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<Fn, InlineFunction> &&
                std::is_invocable_r_v<R, Fn&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(Fn) <= kCapacity,
                  "callable too large for InlineFunction's storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    static_assert(std::is_nothrow_move_constructible_v<Fn>);
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p, Args... args) -> R {
      return (*std::launder(static_cast<Fn*>(p)))(
          std::forward<Args>(args)...);
    };
    if constexpr (!std::is_trivially_copyable_v<Fn>) {
      // Moves the target from `from` to `to` (null: destroys it).
      relocate_ = [](void* to, void* from) noexcept {
        Fn* source = std::launder(static_cast<Fn*>(from));
        if (to != nullptr) ::new (to) Fn(std::move(*source));
        source->~Fn();
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { Take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      Take(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { Reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  void Reset() noexcept {
    if (relocate_ != nullptr) relocate_(nullptr, storage_);
    invoke_ = nullptr;
    relocate_ = nullptr;
  }

  void Take(InlineFunction& other) noexcept {
    if (other.relocate_ != nullptr) {
      other.relocate_(storage_, other.storage_);
    } else if (other.invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kCapacity);
    }
    invoke_ = std::exchange(other.invoke_, nullptr);
    relocate_ = std::exchange(other.relocate_, nullptr);
  }

  R (*invoke_)(void*, Args...) = nullptr;
  void (*relocate_)(void*, void*) noexcept = nullptr;
  alignas(std::max_align_t) mutable unsigned char storage_[kCapacity] = {};
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_INLINE_FUNCTION_H_
