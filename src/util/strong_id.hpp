#pragma once
// Strong index-domain types (docs/ids.md).
//
// The scheduler juggles four integer index domains — tasks, processors,
// Gs/CSR edge slots and Monte-Carlo lanes — and the paper's robustness
// machinery is only as trustworthy as the index arithmetic under it: a
// TaskId silently indexing a processor array, or a 32-bit edge-offset
// product, corrupts slack statistics without failing a single test.
// StrongId<Tag, Rep> makes the domain part of the type:
//
//   * no cross-tag conversion: a TaskId never converts to a ProcId, an
//     EdgeId, a LaneId or any raw integer — getting the raw value back is
//     always an explicit `.value()` (external interop: files, JSON) or
//     `.index()` (subscripting a container the type system cannot see);
//   * construction from raw integers is implicit only from signed types no
//     wider than the representation (so literals, kNoTask-style sentinels
//     and `std::vector<TaskId>{0, 1, 3}` test fixtures read naturally);
//     anything wider or unsigned — size_t loop counters in particular —
//     needs an explicit TaskId{i} / static_cast<TaskId>(i) at the domain
//     boundary;
//   * zero overhead: same size, alignment and bit pattern as Rep, trivially
//     copyable, so spans/digests/hashes over id arrays see the exact bytes a
//     raw-integer array would produce (service fingerprints and golden
//     fixtures stay byte-identical).
//
// IdVector<Id, T> / IdSpan<Id, T> are the companion containers: their
// operator[] accepts only the matching id type (debug bounds-checked,
// release zero-cost), which turns "this vector is indexed by task" from a
// comment into a compile error. tools/rts_analyze.py's index-domain rule
// polices the residue the type system cannot reach (`.value()` laundering,
// raw subscripts in the migrated hot paths).

#include <cassert>
#include <compare>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iosfwd>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <vector>

namespace rts {

/// Strongly typed integer id. `Tag` is an empty marker type naming the index
/// domain; `Rep` the signed representation (-1 is the conventional "absent"
/// sentinel, mirroring kNoTask/kNoProc).
template <class Tag, class Rep = std::int32_t>
class StrongId {
  static_assert(std::is_integral_v<Rep> && std::is_signed_v<Rep>,
                "StrongId requires a signed integral representation");

 public:
  using tag_type = Tag;
  using rep_type = Rep;

  constexpr StrongId() noexcept = default;

  /// Implicit from signed integers that cannot widen past Rep: literals and
  /// Rep-typed values enter the domain silently, everything else explicitly.
  template <std::signed_integral I>
    requires(sizeof(I) <= sizeof(Rep))
  constexpr StrongId(I v) noexcept : v_(static_cast<Rep>(v)) {}  // NOLINT(google-explicit-constructor)

  /// Explicit from every other integer type (unsigned, wider): the caller
  /// vouches the value is in domain and in range.
  template <std::integral I>
    requires(!(std::signed_integral<I> && sizeof(I) <= sizeof(Rep)))
  explicit constexpr StrongId(I v) noexcept : v_(static_cast<Rep>(v)) {}

  /// Raw representation, for external interop (serialization, JSON, DOT).
  /// Never use this to subscript a container — that is what index() and the
  /// typed containers are for (enforced by rts_analyze's index-domain rule).
  [[nodiscard]] constexpr Rep value() const noexcept { return v_; }

  /// Container subscript for *untyped* containers at domain boundaries.
  [[nodiscard]] constexpr std::size_t index() const noexcept {
    assert(v_ >= 0 && "indexing with a negative/sentinel id");
    return static_cast<std::size_t>(v_);
  }

  /// True for real ids (>= 0), false for sentinels like kNoTask.
  [[nodiscard]] constexpr bool valid() const noexcept { return v_ >= 0; }

  /// Successor id — CSR offset tables indexed by id keep one extra slot, so
  /// `off[t]..off[t.next()]` brackets t's edge range.
  [[nodiscard]] constexpr StrongId next() const noexcept {
    return StrongId(static_cast<Rep>(v_ + 1));
  }

  constexpr StrongId& operator++() noexcept {
    ++v_;
    return *this;
  }
  constexpr StrongId operator++(int) noexcept {
    StrongId old = *this;
    ++v_;
    return old;
  }
  constexpr StrongId& operator--() noexcept {
    --v_;
    return *this;
  }
  constexpr StrongId operator--(int) noexcept {
    StrongId old = *this;
    --v_;
    return old;
  }

  friend constexpr auto operator<=>(StrongId, StrongId) noexcept = default;

  /// Stream formatting prints the raw value (templated so the header only
  /// needs <iosfwd>; resolved where the caller includes <ostream>).
  template <class CharT, class Traits>
  friend std::basic_ostream<CharT, Traits>& operator<<(
      std::basic_ostream<CharT, Traits>& os, StrongId id) {
    return os << id.v_;
  }

 private:
  Rep v_ = 0;
};

/// Task identifier; tasks of a graph with n nodes are 0..n-1.
using TaskId = StrongId<struct TaskIdTag, std::int32_t>;

/// Processor identifier; processors of an m-machine platform are 0..m-1.
using ProcId = StrongId<struct ProcIdTag, std::int32_t>;

/// Edge/CSR-offset identifier. 64-bit by design: edge counts and prefix
/// offsets are the first quantities to overflow 32 bits at the ROADMAP's
/// million-task scale, and lane*stride products are computed in this domain.
using EdgeId = StrongId<struct EdgeIdTag, std::int64_t>;

/// Monte-Carlo realization-lane identifier within one batched sweep pass.
using LaneId = StrongId<struct LaneIdTag, std::int32_t>;

/// Invalid/absent markers.
inline constexpr TaskId kNoTask{-1};
inline constexpr ProcId kNoProc{-1};

namespace detail {
[[noreturn]] inline void id_bounds_abort() noexcept {
  assert(false && "IdVector/IdSpan subscript out of bounds");
  std::abort();
}
}  // namespace detail

#ifdef NDEBUG
inline constexpr bool kIdBoundsChecked = false;
#else
inline constexpr bool kIdBoundsChecked = true;
#endif

/// Half-open range [0, count) of ids, for typed index loops:
/// `for (const TaskId t : id_range<TaskId>(n))`.
template <class Id>
class IdRange {
 public:
  class iterator {
   public:
    using value_type = Id;
    using difference_type = std::ptrdiff_t;
    constexpr iterator() noexcept = default;
    explicit constexpr iterator(Id id) noexcept : id_(id) {}
    constexpr Id operator*() const noexcept { return id_; }
    constexpr iterator& operator++() noexcept {
      ++id_;
      return *this;
    }
    constexpr iterator operator++(int) noexcept {
      iterator old = *this;
      ++id_;
      return old;
    }
    friend constexpr bool operator==(iterator, iterator) noexcept = default;

   private:
    Id id_{};
  };

  explicit constexpr IdRange(std::size_t count) noexcept
      : count_(static_cast<typename Id::rep_type>(count)) {}
  [[nodiscard]] constexpr iterator begin() const noexcept {
    return iterator(Id{});
  }
  [[nodiscard]] constexpr iterator end() const noexcept {
    return iterator(Id(count_));
  }
  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return static_cast<std::size_t>(count_);
  }

 private:
  typename Id::rep_type count_;
};

template <class Id>
[[nodiscard]] constexpr IdRange<Id> id_range(std::size_t count) noexcept {
  return IdRange<Id>(count);
}

/// `std::vector<T>` whose subscript accepts only `Id` — "indexed by task"
/// as a compile-time property instead of a naming convention. Debug builds
/// bounds-check every access; release builds compile to the raw vector
/// subscript. Iteration, size() and span conversion (std::span's range
/// constructor) work on raw positions exactly like std::vector, so
/// value-wise algorithms are unaffected.
template <class Id, class T>
class IdVector {
 public:
  using value_type = T;
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;
  // vector<bool> returns proxy references; use the vector's own types.
  using reference = typename std::vector<T>::reference;
  using const_reference = typename std::vector<T>::const_reference;

  IdVector() = default;
  explicit IdVector(std::size_t count) : v_(count) {}
  IdVector(std::size_t count, const T& init) : v_(count, init) {}
  IdVector(std::initializer_list<T> init) : v_(init) {}
  explicit IdVector(std::vector<T> v) : v_(std::move(v)) {}

  [[nodiscard]] reference operator[](Id id) {
    if constexpr (kIdBoundsChecked) {
      if (!id.valid() || id.index() >= v_.size()) detail::id_bounds_abort();
    }
    return v_[static_cast<std::size_t>(id.value())];
  }
  [[nodiscard]] const_reference operator[](Id id) const {
    if constexpr (kIdBoundsChecked) {
      if (!id.valid() || id.index() >= v_.size()) detail::id_bounds_abort();
    }
    return v_[static_cast<std::size_t>(id.value())];
  }

  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  [[nodiscard]] Id end_id() const noexcept {
    return Id(static_cast<typename Id::rep_type>(v_.size()));
  }
  [[nodiscard]] IdRange<Id> ids() const noexcept {
    return IdRange<Id>(v_.size());
  }

  void assign(std::size_t count, const T& value) { v_.assign(count, value); }
  template <class It>
  void assign(It first, It last) {
    v_.assign(first, last);
  }
  void resize(std::size_t count) { v_.resize(count); }
  void resize(std::size_t count, const T& value) { v_.resize(count, value); }
  void reserve(std::size_t count) { v_.reserve(count); }
  void clear() noexcept { v_.clear(); }
  void push_back(const T& value) { v_.push_back(value); }
  void push_back(T&& value) { v_.push_back(std::move(value)); }

  [[nodiscard]] T* data() noexcept { return v_.data(); }
  [[nodiscard]] const T* data() const noexcept { return v_.data(); }
  [[nodiscard]] iterator begin() noexcept { return v_.begin(); }
  [[nodiscard]] iterator end() noexcept { return v_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept { return v_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return v_.end(); }
  [[nodiscard]] T& front() { return v_.front(); }
  [[nodiscard]] const T& front() const { return v_.front(); }
  [[nodiscard]] T& back() { return v_.back(); }
  [[nodiscard]] const T& back() const { return v_.back(); }

  /// Raw vector escape hatch for value-wise interop (stats over all values,
  /// serialization); never subscript the result with an id.
  [[nodiscard]] std::vector<T>& raw() noexcept { return v_; }
  [[nodiscard]] const std::vector<T>& raw() const noexcept { return v_; }

  friend bool operator==(const IdVector&, const IdVector&) = default;

 private:
  std::vector<T> v_;
};

/// Non-owning view with id-typed subscripting; the typed analogue of
/// std::span. Implicitly constructible from any contiguous range of T (the
/// "entry door" at domain boundaries: callers keep passing vectors/spans,
/// the callee's signature documents and enforces the index domain).
template <class Id, class T>
class IdSpan {
 public:
  using element_type = T;

  constexpr IdSpan() noexcept = default;
  constexpr IdSpan(std::span<T> s) noexcept : s_(s) {}  // NOLINT(google-explicit-constructor)
  template <class R>
    requires(!std::is_same_v<std::remove_cvref_t<R>, IdSpan> &&
             std::constructible_from<std::span<T>, R&>)
  constexpr IdSpan(R&& r) noexcept : s_(r) {}  // NOLINT(google-explicit-constructor)
  template <class U>
    requires(std::is_same_v<std::remove_const_t<T>, U> && std::is_const_v<T>)
  constexpr IdSpan(const IdVector<Id, U>& v) noexcept  // NOLINT(google-explicit-constructor)
      : s_(v.data(), v.size()) {}
  constexpr IdSpan(IdVector<Id, std::remove_const_t<T>>& v) noexcept  // NOLINT(google-explicit-constructor)
      : s_(v.data(), v.size()) {}

  [[nodiscard]] constexpr T& operator[](Id id) const {
    if constexpr (kIdBoundsChecked) {
      if (!id.valid() || id.index() >= s_.size()) detail::id_bounds_abort();
    }
    return s_[static_cast<std::size_t>(id.value())];
  }

  [[nodiscard]] constexpr std::size_t size() const noexcept { return s_.size(); }
  [[nodiscard]] constexpr bool empty() const noexcept { return s_.empty(); }
  [[nodiscard]] constexpr T* data() const noexcept { return s_.data(); }
  [[nodiscard]] constexpr auto begin() const noexcept { return s_.begin(); }
  [[nodiscard]] constexpr auto end() const noexcept { return s_.end(); }
  [[nodiscard]] constexpr Id end_id() const noexcept {
    return Id(static_cast<typename Id::rep_type>(s_.size()));
  }
  [[nodiscard]] constexpr IdRange<Id> ids() const noexcept {
    return IdRange<Id>(s_.size());
  }

  /// Raw span escape hatch for value-wise interop; never subscript the
  /// result with an id.
  [[nodiscard]] constexpr std::span<T> raw() const noexcept { return s_; }

 private:
  std::span<T> s_;
};

// Zero-overhead guarantees the hot paths (and the service digests, which
// hash id arrays byte-wise) rely on.
static_assert(sizeof(TaskId) == sizeof(std::int32_t));
static_assert(sizeof(ProcId) == sizeof(std::int32_t));
static_assert(sizeof(EdgeId) == sizeof(std::int64_t));
static_assert(sizeof(LaneId) == sizeof(std::int32_t));
static_assert(alignof(TaskId) == alignof(std::int32_t));
static_assert(std::is_trivially_copyable_v<TaskId>);
static_assert(std::is_trivially_copyable_v<EdgeId>);
// No cross-tag conversion, in either direction, explicit or implicit.
static_assert(!std::is_constructible_v<TaskId, ProcId>);
static_assert(!std::is_constructible_v<ProcId, TaskId>);
static_assert(!std::is_constructible_v<EdgeId, TaskId>);
static_assert(!std::is_constructible_v<LaneId, ProcId>);
static_assert(!std::is_convertible_v<TaskId, std::int32_t>);
static_assert(!std::is_convertible_v<TaskId, std::size_t>);

}  // namespace rts

template <class Tag, class Rep>
struct std::hash<rts::StrongId<Tag, Rep>> {
  [[nodiscard]] std::size_t operator()(
      rts::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};
