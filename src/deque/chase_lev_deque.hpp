#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/cache_line.hpp"
#include "util/layout.hpp"
#include "util/sync_policy.hpp"

namespace cab::deque {

/// Lock-free work-stealing deque of pointers, after Chase & Lev, "Dynamic
/// Circular Work-Stealing Deque" (SPAA 2005), with the C11 memory-order
/// treatment of Lê et al. (PPoPP 2013).
///
/// Single owner thread calls push_bottom / pop_bottom; any number of thief
/// threads call steal_top. The backing ring grows on demand; retired rings
/// are kept alive until destruction, which makes concurrent readers of an
/// old ring safe without a reclamation scheme (memory cost is at most 2x
/// the high-water mark).
///
/// This is the intra-socket task pool of the CAB runtime (Fig. 3) and the
/// per-worker pool of the classic work-stealing baseline.
///
/// Besides the classic single-task steal_top, the deque supports a
/// *steal-half batch* transfer (steal_batch) for the intra-socket tier:
/// one claim CAS on top_ fences out every other consumer, the thief reads
/// up to half the tasks, and a single claim-clearing store of top_
/// linearizes the whole batch. See the claim-bit protocol notes on
/// steal_batch below and DESIGN.md ("Steal-half batching").
///
/// Templated on the Sync policy (util/sync_policy.hpp): production code
/// uses the default `util::RealSync` (plain std::atomic); the model
/// checker instantiates the same template over `chk::atomic` and explores
/// every interleaving of the push/pop/steal/steal_batch races exhaustively
/// (tests/test_model_check.cpp). Every memory_order below carries a
/// `mo:`/`seq_cst:` justification audited against that checked model.
template <typename T, typename Sync = util::RealSync>
class ChaseLevDeque {
  static_assert(std::is_pointer_v<T>, "stores raw pointers to task frames");

  template <typename U>
  using Atomic = typename Sync::template atomic_t<U>;

 public:
  /// Claim flag on top_ marking an in-flight batch steal. Bit 62 keeps the
  /// marked value positive and numerically huge, so every unmodified
  /// comparison against bottom_ (`t >= b` in steal_top, `t > b` in
  /// pop_bottom's pre-claim-era shape) reads a claimed deque as "empty" and
  /// every CAS expecting an unclaimed value fails cleanly. A real top index
  /// would need 2^62 lifetime pushes to collide.
  static constexpr std::int64_t kClaimBit = std::int64_t{1} << 62;

  explicit ChaseLevDeque(std::size_t initial_capacity = 64)
      : top_(0), bottom_(0) {
    rings_.push_back(std::make_unique<Ring>(round_up_pow2(initial_capacity)));
    // mo: relaxed — single-threaded construction; the object is published
    // to thieves by whatever hand-off publishes the deque itself.
    ring_.store(rings_.back().get(), std::memory_order_relaxed);
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only. Pushes onto the bottom (LIFO end).
  void push_bottom(T item) {
    // mo: relaxed — bottom_ is owner-written only; the owner's own prior
    // store is visible to itself without ordering.
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // mo: acquire — pairs with the release CAS in steal_top so the slot a
    // thief vacated is observed empty before we overwrite top-side state
    // (Lê et al. Fig. 1 load of top in push).
    std::int64_t t = top_.load(std::memory_order_acquire) & ~kClaimBit;
    // The claim bit is masked off for the capacity/grow arithmetic: a
    // claimed top reads as the *pre-claim* base index, which understates
    // free space (the claiming thief will advance top) and so can only
    // grow early, never overwrite a slot the thief is still reading.
    Ring* r = ring_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(r->capacity) - 1) {
      r = grow(r, t, b);
    }
    r->put(b, item);
    // mo: release *store* (not a release fence + relaxed store, which is
    // equivalent on the metal but invisible to TSan): pairs with the
    // thief's acquire load of bottom_ to publish the slot and the task
    // frame behind it. This is the PPoPP'13 formulation. Weakening this
    // to relaxed is the checked negative model
    // (ModelCheckNegative.RelaxedPublicationRace shape): the thief would
    // read the task frame without a happens-before edge.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only. Pops from the bottom (LIFO). Returns nullptr when empty
  /// or when a thief won the race for the last element. While a batch
  /// claim is pending the owner restores bottom_ and waits it out — the
  /// claim window is a handful of instructions on the thief's side, and an
  /// owner that popped under a live claim could double-take an element the
  /// claiming thief is about to copy.
  T pop_bottom() {
    int spins = 1;
    for (;;) {
      // mo: relaxed — owner-only index maths; ordering is supplied by the
      // fence below.
      std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
      Ring* r = ring_.load(std::memory_order_relaxed);
      bottom_.store(b, std::memory_order_relaxed);
      // seq_cst: the store of the decremented bottom_ must be globally
      // ordered against the thief's load of bottom_ in steal_top (whose own
      // seq_cst fence is the other half). With anything weaker, owner and
      // thief can both observe the *pre-race* state of the single remaining
      // element and both take it — the classic Chase–Lev lost/double-take
      // race (the checker's BrokenStealDoubleTake negative model shows the
      // double-take when this protocol is weakened). The same total order
      // is what makes the claim check below sound: if a batch claim's CAS
      // precedes this fence, the load below is guaranteed to observe it.
      Sync::fence(std::memory_order_seq_cst);
      std::int64_t t = top_.load(std::memory_order_relaxed);
      if (t & kClaimBit) {
        // A batch steal holds the claim. Restore bottom_ so the thief's
        // fresh bottom read (after its claim) sees a stable value, then
        // wait for the claim-clearing store and re-run the pop from
        // scratch against the advanced top.
        // mo: relaxed — owner-only restore; no payload is published.
        bottom_.store(b + 1, std::memory_order_relaxed);
        // mo: acquire — pairs with the claim-clearing release store in
        // steal_batch so the retry observes the advanced top (and, via
        // the retry's own fence, a coherent bottom).
        while (top_.load(std::memory_order_acquire) & kClaimBit) {
          Sync::spin_pause(spins);
        }
        continue;
      }
      if (t > b) {
        // Deque was empty; restore.
        // mo: relaxed — owner-only restore; no payload is published.
        bottom_.store(b + 1, std::memory_order_relaxed);
        return nullptr;
      }
      T item = r->get(b);
      if (t == b) {
        // Last element: race against thieves via CAS on top.
        // seq_cst: the CAS participates in the same total order as the
        // fences above/in steal_top; exactly one of {owner, thief} wins the
        // final element. Failure order relaxed — on failure we only restore
        // bottom_ (owner-local). A concurrent steal_batch that claimed
        // after our fence also fails this CAS for us (top_ holds the
        // marked value) — the claiming thief then owns the element.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          item = nullptr;  // a thief won
        }
        // mo: relaxed — owner-only restore to the canonical empty shape.
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
      return item;
    }
  }

  /// Thieves (any thread). Steals from the top (FIFO end). Returns nullptr
  /// when empty or when the steal raced and lost.
  T steal_top() {
    // mo: acquire — pairs with the release CAS of competing thieves so a
    // freshly incremented top_ is seen before bottom_ is probed.
    std::int64_t t = top_.load(std::memory_order_acquire);
    // seq_cst: orders the top_ load above against the bottom_ load below
    // in the global fence order shared with pop_bottom — the thief must
    // not read a stale bottom_ from before an owner's in-flight pop
    // (Lê et al. Fig. 2).
    Sync::fence(std::memory_order_seq_cst);
    // mo: acquire — pairs with the owner's release store in push_bottom:
    // observing b > t here is what publishes the slot contents and the
    // task frame behind the pointer.
    std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    // mo: acquire (was consume — consume is deprecated and compilers
    // promote it to acquire anyway; the checked model needs the explicit
    // edge): pairs with the release store in grow() so the new ring's
    // slots are initialized before we index them.
    Ring* r = ring_.load(std::memory_order_acquire);
    T item = r->get(t);
    // seq_cst: same total order as pop_bottom's CAS — arbitration for the
    // final element. Failure order relaxed: a lost race returns nullptr
    // without touching shared state. A pending batch claim also lands
    // here: top_ holds the marked value, the expected `t` is unmarked, so
    // the CAS fails and the thief retreats without waiting.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race
    }
    return item;
  }

  /// Thieves (any thread). Steal-half batch transfer: claims up to
  /// ceil(n/2) tasks (capped at max_out) from the top in one arbitration,
  /// writing them FIFO-oldest-first into `out`. Returns the number taken
  /// (0 when empty, claimed by another batch thief, or the race was lost).
  ///
  /// Protocol (the part the model checker owns): a single CAS marks top_
  /// with kClaimBit. While the mark is visible, every other consumer
  /// backs off — steal_top and competing steal_batch calls fail their
  /// unmarked-expected CASes, and pop_bottom restores bottom_ and spins.
  /// That exclusivity is what makes the *multi-element* read safe: a naive
  /// "read k items then CAS top t→t+k" admits a double-take, because the
  /// owner may plainly pop an interior index j in (t, t+k) while top still
  /// equals t, and the thief's CAS then succeeds anyway (the
  /// BrokenBatchRangeCas negative model replays exactly that). Under the
  /// claim, the thief re-reads bottom_ — guaranteed fresh by the fence
  /// pairing with pop's — sizes the batch from that stable snapshot, and
  /// a single claim-clearing store of top_ = t + k linearizes the batch.
  std::size_t steal_batch(T* out, std::size_t max_out) {
    if (max_out == 0) return 0;
    // mo: acquire — same pairing as steal_top's top_ load; also rejects a
    // visibly claimed deque (marked value reads as huge) before fencing.
    std::int64_t t = top_.load(std::memory_order_acquire);
    // seq_cst: same fence dance as steal_top — orders the top_ load above
    // against the bottom_ probe below in the global order shared with
    // pop_bottom, so the emptiness pre-check is not based on a bottom_
    // from before an in-flight pop.
    Sync::fence(std::memory_order_seq_cst);
    // mo: acquire — pairs with push_bottom's release store (publishes
    // slots for the pre-check; the authoritative read is re-done below).
    std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return 0;  // empty, or claimed by another batch thief
    // seq_cst: the claim is the batch's arbitration point, in the same
    // total order as pop_bottom's and steal_top's CASes — it atomically
    // excludes every other consumer. Failure order relaxed: a lost claim
    // returns without touching shared state.
    if (!top_.compare_exchange_strong(
            t, t | kClaimBit,
            std::memory_order_seq_cst,  // seq_cst: see the comment above
            std::memory_order_relaxed)) {
      return 0;
    }
    // seq_cst: pairs with the fence in pop_bottom. Any owner pop whose
    // top_ read did NOT observe the claim has its fence (and therefore its
    // bottom_ decrement) ordered before this one, so the load below sees
    // it; any pop whose fence follows the claim CAS in the total order is
    // forced to observe the mark and back off. Either way the bottom_
    // snapshot below is a safe upper bound on live tasks.
    Sync::fence(std::memory_order_seq_cst);
    // mo: acquire — pairs with push_bottom's release store so every slot
    // counted here is published before we read it.
    b = bottom_.load(std::memory_order_acquire);
    std::int64_t n = b - t;
    if (n <= 0) {
      // The owner drained (or transiently decremented past) everything
      // before observing the claim. Nothing to take; unmark.
      // mo: release — pairs with pop_bottom's spin acquire; restores the
      // pre-claim value (competing CASes that raced the claim window fail
      // against the mark and simply retry against the restored value).
      top_.store(t, std::memory_order_release);
      return 0;
    }
    std::size_t k = static_cast<std::size_t>((n + 1) / 2);  // steal half, ceil
    if (k > max_out) k = max_out;
    // mo: acquire — pairs with the release store in grow(): whichever ring
    // we observe (retired rings stay alive) contains every live slot in
    // [t, t+k), because grow copies the full masked-[t, b) range and the
    // owner never overwrites a slot below the claim base (push masks the
    // claim bit in its capacity check).
    Ring* r = ring_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < k; ++i) {
      out[i] = r->get(t + static_cast<std::int64_t>(i));
    }
    // mo: release — the claim-clearing linearization of the whole batch:
    // publishes the advanced top to pop_bottom's spin (acquire) and
    // push_bottom's capacity check, and invalidates every CAS expecting
    // the unmarked pre-claim value. Exclusivity (no other consumer can
    // modify top_ under the mark) is what lets this be a plain store.
    top_.store(t + static_cast<std::int64_t>(k), std::memory_order_release);
    return k;
  }

  /// Racy size estimate, for victim-selection heuristics and stats only.
  std::size_t size_estimate() const {
    // mo: relaxed — heuristic readers tolerate any interleaving. The claim
    // bit is masked so a deque mid-batch-steal reports its pre-claim size
    // instead of zero.
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_relaxed) & ~kClaimBit;
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  bool empty_estimate() const { return size_estimate() == 0; }

 private:
  struct Ring {
    explicit Ring(std::size_t cap) : capacity(cap), mask(cap - 1), slots(cap) {
      // mo: relaxed — construction precedes publication via ring_.
      for (auto& s : slots) s.store(nullptr, std::memory_order_relaxed);
    }
    T get(std::int64_t i) const {
      // mo: relaxed — slot contents are published by bottom_ (push) or
      // ring_ (grow) release stores, never by the slot itself.
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      // mo: relaxed — see get().
      slots[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }
    const std::size_t capacity;
    const std::size_t mask;
    // pad-ok: ring slots are deliberately dense — the owner streams
    // through adjacent slots on push/pop, so padding each slot to a cache
    // line would trade that locality (and multiply the Θ(C) ring memory)
    // for a thief contention case the top_-CAS already serializes.
    std::vector<Atomic<T>> slots;
  };

  static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    // Floor of 2: a 1-slot ring would make push/grow ambiguous. (The old
    // floor of 8 was arbitrary; 2 lets the model checker exercise grow()
    // with a handful of schedule points.)
    return p < 2 ? 2 : p;
  }

  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    auto bigger = std::make_unique<Ring>(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    Ring* raw = bigger.get();
    rings_.push_back(std::move(bigger));  // owner-only; old ring stays alive
    // mo: release — publishes the copied slots to thieves that acquire
    // ring_ in steal_top. Thieves still racing on the *old* ring are safe
    // because retired rings are kept alive until destruction.
    ring_.store(raw, std::memory_order_release);
    return raw;
  }

  alignas(util::kCacheLineSize) Atomic<std::int64_t> top_;
  alignas(util::kCacheLineSize) Atomic<std::int64_t> bottom_;
  alignas(util::kCacheLineSize) Atomic<Ring*> ring_;
  std::vector<std::unique_ptr<Ring>> rings_;  // owner-mutated only

  friend struct ChaseLevDequeLayout;
};

/// Line map of the production deque (util/layout.hpp). T is always a
/// pointer, so one instantiation stands for all of them.
struct ChaseLevDequeLayout {
  using D = ChaseLevDeque<void*>;
  static_assert(
      util::layout::owns_lines(CAB_SPAN(D, top_), CAB_OFFSETOF(D, bottom_)) &&
          util::layout::owns_lines(CAB_SPAN(D, bottom_),
                                   CAB_OFFSETOF(D, ring_)),
      "tail-shared: ChaseLevDeque::top_ (thieves' CAS) and bottom_ (owner "
      "stores) must each own their line");
  // tail-ok: rings_ is the grow-path retirement list, mutated only while
  // the owner is already rewriting ring_ itself — thieves re-acquire
  // ring_ after any grow, so sharing its tail line adds no traffic.
  static_assert(util::layout::owns_lines(
                    util::layout::cluster(CAB_SPAN(D, ring_),
                                          CAB_SPAN(D, rings_)),
                    sizeof(D)),
                "tail-shared: ChaseLevDeque::ring_ may share its line with "
                "rings_ only");
};

}  // namespace cab::deque
