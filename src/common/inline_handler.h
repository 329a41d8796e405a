// A move-only, small-buffer-optimized callable for the event queue hot path.
//
// The simulator stores millions of scheduled handlers; std::function heap-allocates
// once captures exceed its (implementation-defined, typically 16-byte) inline buffer,
// which makes every completion/keep-alive event an allocation. InlineHandler keeps
// captures up to kInlineCapacity bytes inside the handler object itself — every
// scheduler call site in src/sim and src/platform fits — and falls back to a single
// heap cell only for oversized or alignment-exotic callables (test helpers, tools).
#ifndef COLDSTART_COMMON_INLINE_HANDLER_H_
#define COLDSTART_COMMON_INLINE_HANDLER_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace coldstart {

class InlineHandler {
 public:
  static constexpr size_t kInlineCapacity = 48;

  InlineHandler() = default;

  // Implicit by design, mirroring std::function: call sites pass lambdas directly.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineHandler> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineHandler(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (kStoredInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineHandler(InlineHandler&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineHandler& operator=(InlineHandler&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineHandler(const InlineHandler&) = delete;
  InlineHandler& operator=(const InlineHandler&) = delete;

  ~InlineHandler() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    COLDSTART_CHECK(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  // True when the wrapped callable lives entirely in the inline buffer.
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

  // The wrapped callable when it is an `Fn`, else nullptr — like
  // std::function::target. Lets a checkpoint writer read pending handlers of a
  // known plain-data type without running them.
  template <typename Fn>
  const Fn* target() const {
    if constexpr (kStoredInline<Fn>) {
      if (ops_ == &kInlineOps<Fn>) {
        return std::launder(reinterpret_cast<const Fn*>(buf_));
      }
    } else {
      if (ops_ == &kHeapOps<Fn>) {
        return *std::launder(reinterpret_cast<Fn* const*>(buf_));
      }
    }
    return nullptr;
  }

 private:
  template <typename Fn>
  static constexpr bool kStoredInline = sizeof(Fn) <= kInlineCapacity &&
                                        alignof(Fn) <= alignof(std::max_align_t) &&
                                        std::is_nothrow_move_constructible_v<Fn>;

  struct Ops {
    void (*invoke)(void*);
    // Move-constructs the payload at dst from src and destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename Fn>
  static void InlineInvoke(void* p) {
    (*std::launder(static_cast<Fn*>(p)))();
  }
  template <typename Fn>
  static void InlineRelocate(void* dst, void* src) {
    Fn* s = std::launder(static_cast<Fn*>(src));
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }
  template <typename Fn>
  static void InlineDestroy(void* p) {
    std::launder(static_cast<Fn*>(p))->~Fn();
  }
  template <typename Fn>
  static constexpr Ops kInlineOps{&InlineInvoke<Fn>, &InlineRelocate<Fn>,
                                  &InlineDestroy<Fn>, /*inline_storage=*/true};

  template <typename Fn>
  static Fn* HeapCell(void* p) {
    return *std::launder(reinterpret_cast<Fn**>(p));
  }
  template <typename Fn>
  static void HeapInvoke(void* p) {
    (*HeapCell<Fn>(p))();
  }
  template <typename Fn>
  static void HeapRelocate(void* dst, void* src) {
    ::new (dst) Fn*(HeapCell<Fn>(src));
  }
  template <typename Fn>
  static void HeapDestroy(void* p) {
    delete HeapCell<Fn>(p);
  }
  template <typename Fn>
  static constexpr Ops kHeapOps{&HeapInvoke<Fn>, &HeapRelocate<Fn>, &HeapDestroy<Fn>,
                                /*inline_storage=*/false};

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace coldstart

#endif  // COLDSTART_COMMON_INLINE_HANDLER_H_
