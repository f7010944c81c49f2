// Discrete-event simulation engine.
//
// Everything dynamic in this reproduction — batch queues, background
// workload, file transfers, pilot agents, the AIMES middleware itself — runs
// as events on this engine's virtual clock. The paper gathered data "over a
// year" on production machines; virtual time compresses that to seconds while
// keeping run-to-run variability under seed control.
//
// Determinism contract:
//  * single-threaded execution *per engine* (one engine = one replica; a
//    sim::ReplicaPool may run many engines on parallel threads, but no two
//    threads ever touch the same engine);
//  * events at equal timestamps fire in scheduling order (a monotonic
//    sequence number breaks ties);
//  * no wall-clock or address-dependent ordering anywhere.
// Under this contract a simulation is a pure function of (configuration,
// seed), which the reproducibility tests assert.
//
// Storage: events live in a generation-tagged slab (free slots recycled via
// a freelist), with the callback held inline in the record through
// InlineCallback — no per-event heap allocation for ordinary captures, no
// hash-table lookups on the hot path. Ordering is a 4-ary min-heap of slot
// indices keyed by (when, seq); each slot knows its heap position, so
// cancel() removes in O(log n) with no tombstones and queued() is exact.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/id.hpp"
#include "common/time.hpp"
#include "sim/inline_callback.hpp"

namespace aimes::sim {

using common::EventId;
using common::SimDuration;
using common::SimTime;

/// The event queue and virtual clock.
class Engine {
 public:
  using Callback = InlineCallback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run after `delay` (>= 0). Returns an id usable with
  /// `cancel()`. The closure is constructed directly into its slab slot —
  /// no intermediate std::function, no per-event heap allocation for
  /// captures up to InlineCallback::kInlineSize bytes.
  template <typename F>
  EventId schedule(SimDuration delay, F&& fn) {
    assert(delay >= SimDuration::zero());
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `when` (>= now()).
  template <typename F>
  EventId schedule_at(SimTime when, F&& fn) {
    const std::uint32_t slot = prepare_event(when);
    cb(slot).emplace(std::forward<F>(fn));
    return encode(slot, generation_[slot]);
  }

  /// Cancels a pending event in O(log n). Cancelling an already-fired,
  /// already-cancelled or unknown id is a harmless no-op (the slot's
  /// generation tag rejects stale ids, even after the slot is reused).
  void cancel(EventId id);

  /// True if an event with this id is still pending.
  [[nodiscard]] bool pending(EventId id) const { return slot_of(id) != kNil; }

  /// Runs events until the queue is empty. Returns the number of events run.
  std::size_t run();

  /// Runs events with timestamp <= `until`, then advances the clock to
  /// `until` (even if idle). Returns the number of events run.
  std::size_t run_until(SimTime until);

  /// Runs at most one event; returns false if the queue was empty.
  bool step() { return fire_next(); }

  /// Number of events waiting. Exact: cancelled events leave the heap
  /// immediately, so there is no tombstone slack to misreport.
  [[nodiscard]] std::size_t queued() const { return heap_.size(); }

  /// Total events executed since construction (for the substrate benches).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// High-water mark of queued() over the engine's lifetime — the heap's
  /// peak footprint, surfaced in the observability engine stats.
  [[nodiscard]] std::size_t peak_queued() const { return peak_queued_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // Heap entries are 16 bytes so a full 4-child group spans a single cache
  // line. The timestamp (the primary key) is carried inline; the tie-break
  // sequence number lives in a dense side array consulted only when two
  // timestamps collide.
  struct HeapEntry {
    std::int64_t when_ms;
    std::uint32_t slot;
  };

  // An EventId packs (generation << 32) | (slot index + 1); the +1 keeps the
  // reserved invalid id 0 unreachable.
  static EventId encode(std::uint32_t slot, std::uint32_t generation) {
    return EventId((static_cast<std::uint64_t>(generation) << 32) |
                   (static_cast<std::uint64_t>(slot) + 1));
  }

  /// Slot index of a live event id, or kNil if stale/unknown.
  [[nodiscard]] std::uint32_t slot_of(EventId id) const;

  [[nodiscard]] bool before(const HeapEntry& a, const HeapEntry& b) const {
    if (a.when_ms != b.when_ms) return a.when_ms < b.when_ms;
    return seq_[a.slot] < seq_[b.slot];
  }

  /// Allocates a slot and queues it at `when`; the caller fills the callback.
  std::uint32_t prepare_event(SimTime when);

  std::uint32_t allocate_slot();
  void free_slot(std::uint32_t slot);
  void heap_push(HeapEntry entry);
  void heap_remove(std::uint32_t pos);
  void pop_root();
  void sift_up(std::uint32_t pos, HeapEntry entry);
  void sift_down(std::uint32_t pos, HeapEntry entry);
  bool fire_next();

  // Callback records live in fixed-size pages with stable addresses, so
  // growing the slab never relocates a callback (relocation would cost an
  // indirect call per stored closure on every doubling).
  static constexpr std::uint32_t kPageBits = 8;
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;
  static constexpr std::uint32_t kPageMask = kPageSize - 1;

  [[nodiscard]] Callback& cb(std::uint32_t slot) {
    return pages_[slot >> kPageBits][slot & kPageMask];
  }

  SimTime now_ = SimTime::epoch();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_queued_ = 0;
  // The slab, as parallel arrays: the sift loops only touch pos_ (dense
  // 4-byte entries, cache-resident even for huge queues), never the fat
  // callback records.
  std::vector<std::unique_ptr<Callback[]>> pages_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> generation_;  // bumped on free; stale ids never match
  std::vector<std::uint32_t> pos_;  // live slot: heap position; free slot: next free
  std::vector<std::uint64_t> seq_;  // scheduling order, the (when, seq) tie-break
  std::vector<HeapEntry> heap_;     // 4-ary min-heap by (when, seq)
  std::uint32_t free_head_ = kNil;
};

}  // namespace aimes::sim
