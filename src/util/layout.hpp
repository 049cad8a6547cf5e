#pragma once

#include <cstddef>
#include <utility>

#include "util/cache_line.hpp"

/// Compile-time cache-line layout checks for the hot runtime structs
/// (DESIGN.md §6d). The offsets and sizes come from the compiler itself,
/// so every build re-proves each layout claim against the real ABI; a
/// failing check is a `static_assert` whose message starts with the
/// rule's name:
///
///   hot-straddle   a hot field crosses a line boundary    -> one_line
///   hot-cohabit    two hot fields share a line            -> disjoint_lines
///                  (a justified `share-ok:` cluster is checked as one
///                  span against the rest)
///   tail-shared    a line-aligned field leaks its last    -> owns_lines
///                  line to the member after it
///   reorder-waste  a struct outgrows its line budget      -> within_lines
///
/// Offsets count from the start of the enclosing object, so line indices
/// are the object's real lines only when it is line-aligned (alignof ==
/// kCacheLineSize). For hosts with smaller alignment, assert what holds
/// for every placement: one_line_anywhere, adjacency of a cluster.
///
/// Template structs are checked on their production `util::RealSync`
/// instantiation, outside the template body (the model checker's
/// `chk::atomic` instantiation has other sizes); private members are
/// reached from a befriended `...Layout` struct.
namespace cab::util::layout {

/// A member's byte range inside its enclosing object.
struct Span {
  std::size_t offset;
  std::size_t size;
};

constexpr std::size_t line_index(std::size_t byte) noexcept {
  return byte / kCacheLineSize;
}
constexpr std::size_t first_line(Span s) noexcept {
  return line_index(s.offset);
}
constexpr std::size_t last_line(Span s) noexcept {
  return line_index(s.offset + s.size - 1);
}

/// Cache lines the member touches.
constexpr std::size_t lines_touched(Span s) noexcept {
  return last_line(s) - first_line(s) + 1;
}

/// The member sits inside a single cache line.
constexpr bool one_line(Span s) noexcept { return lines_touched(s) == 1; }

/// Every placement of a `T` sits inside a single cache line: it is no
/// larger than its alignment, which divides the line size. The check for
/// hot words that are embedded in many different hosts.
template <typename T>
constexpr bool one_line_anywhere() noexcept {
  return sizeof(T) <= alignof(T) && sizeof(T) <= kCacheLineSize;
}

/// No cache line holds bytes of both members.
constexpr bool disjoint_lines(Span a, Span b) noexcept {
  return last_line(a) < first_line(b) || last_line(b) < first_line(a);
}

/// The member starts a line and the next member (or the end of the
/// enclosing object, at byte `next`) starts past its last line: nothing
/// shares the lines it was aligned to own.
constexpr bool owns_lines(Span s, std::size_t next) noexcept {
  return s.offset % kCacheLineSize == 0 && line_index(next) > last_line(s);
}

/// The smallest span covering `first` through `last` (a justified
/// cluster of adjacent members, checked as one unit).
constexpr Span cluster(Span first, Span last) noexcept {
  return {first.offset, last.offset + last.size - first.offset};
}

/// `bytes` fit in a budget of `lines` cache lines.
constexpr bool within_lines(std::size_t bytes, std::size_t lines) noexcept {
  return bytes <= lines * kCacheLineSize;
}

}  // namespace cab::util::layout

/// offsetof that also accepts non-standard-layout types (conditionally
/// supported; GCC and Clang compute it for any type without virtual
/// bases) without tripping -Winvalid-offsetof under -Werror.
#define CAB_OFFSETOF(T, member)                                   \
  ([]() constexpr {                                               \
    _Pragma("GCC diagnostic push")                                \
    _Pragma("GCC diagnostic ignored \"-Winvalid-offsetof\"")      \
    return offsetof(T, member);                                   \
    _Pragma("GCC diagnostic pop")                                 \
  }())

/// The layout::Span of `T::member`.
#define CAB_SPAN(T, member)                          \
  (::cab::util::layout::Span{CAB_OFFSETOF(T, member), \
                             sizeof(std::declval<T&>().member)})
