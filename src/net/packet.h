// Packet buffers and pools.
//
// Mirrors the mbuf discipline of a DPDK datapath: fixed-capacity buffers
// drawn from a pre-allocated pool, returned on release, never allocated on
// the hot path. Capacity covers jumbo fronthaul frames (100 MHz cells
// generate > 7 KB U-plane frames, paper section 5).
//
// Buffer memory is one contiguous, cache-line-aligned arena per pool,
// carved into fixed 9216-byte slots, so burst-path walks touch sequential
// memory. Every packet owns its slot for life; replication (A2) is a deep
// clone into a fresh packet.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace rb {

/// Jumbo-frame capacity: 9000-byte MTU plus L2 headers. A multiple of the
/// cache line size so every arena slot starts line-aligned.
inline constexpr std::size_t kPacketCapacity = 9216;

class PacketPool;

namespace detail {
struct ThreadSlotGuard;  // flushes per-thread magazines at thread exit
}

/// One network packet: `len` bytes of frame in its own arena slot.
class Packet {
 public:
  std::span<const std::uint8_t> data() const { return {base_, len_}; }
  std::span<std::uint8_t> data() { return {base_, len_}; }

  /// Read view of [off, off+n).
  std::span<const std::uint8_t> bytes(std::size_t off, std::size_t n) const {
    assert(off + n <= len_);
    return {base_ + off, n};
  }

  /// Read view from `off` to the end of the frame.
  std::span<const std::uint8_t> bytes(std::size_t off) const {
    return bytes(off, len_ > off ? len_ - off : 0);
  }

  /// Full-capacity write view (frame builders write here, then set_len).
  std::span<std::uint8_t> raw() { return {base_, kPacketCapacity}; }

  std::size_t len() const { return len_; }
  /// Set the frame length after writing into raw(). Clamped to capacity.
  void set_len(std::size_t n) {
    len_ = n > kPacketCapacity ? kPacketCapacity : n;
  }

  PacketPool* pool() const { return pool_; }

  /// Virtual receive timestamp (ns since simulation start); set by ports.
  std::int64_t rx_time_ns = 0;
  /// Ingress port identifier for debugging/telemetry.
  std::uint16_t ingress_port = 0;

 private:
  friend class PacketPool;

  std::uint8_t* base_ = nullptr;  // this packet's arena slot
  std::size_t len_ = 0;
  PacketPool* pool_ = nullptr;
};

struct PacketDeleter {
  void operator()(Packet* p) const;
};

/// Owning handle; returning to the pool happens on destruction.
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// Fixed-size pool of packets. alloc() returns nullptr when exhausted,
/// which the ports count as drops - the same back-pressure behaviour an
/// mbuf pool exhibits under overload.
///
/// Thread-safe with per-thread magazines: each worker owns a small
/// free-buffer cache (indexed by a process-wide thread slot), so the
/// steady-state alloc/release pair is lock-free - the mutex-guarded
/// global free list is touched only to refill or flush a magazine, in
/// batches. Packets may cross shard boundaries (a flow's producer and
/// consumer on different workers); buffers then migrate between magazines
/// through the global list.
class PacketPool {
 public:
  explicit PacketPool(std::size_t capacity = 4096);
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Get a fresh packet (len 0, metadata cleared); nullptr if exhausted.
  PacketPtr alloc();

  /// Deep-copy a packet: bytes, length and metadata.
  PacketPtr clone(const Packet& src);

  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const {
    return outstanding_.load(std::memory_order_acquire);
  }
  std::uint64_t alloc_failures() const {
    return alloc_failures_.load(std::memory_order_acquire);
  }

  /// Total bytes of the contiguous buffer arena.
  std::size_t arena_bytes() const { return capacity_ * kPacketCapacity; }

  /// Always 0: every replica is a deep clone and no packet shares bytes.
  /// Kept because the repository benchmark (perfbench/) reports them as
  /// net.zero_copy_share and net.cow_promotions.
  std::uint64_t replicas_zero_copy() const { return 0; }
  std::uint64_t cow_promotions() const { return 0; }

  /// Process-wide default pool used when callers do not wire their own.
  static PacketPool& default_pool();

 private:
  friend struct PacketDeleter;
  friend struct detail::ThreadSlotGuard;

  /// Per-thread free-buffer cache. Owned exclusively by the thread whose
  /// slot indexes it, so no synchronization on the fast path. The per-pool
  /// effective cap (mag_cap_) shrinks with pool capacity so the caches of
  /// a few threads can never absorb a small pool outright.
  static constexpr std::size_t kMagazineSize = 64;
  struct alignas(64) Magazine {
    std::array<Packet*, kMagazineSize> items;
    std::size_t count = 0;
  };
  /// Threads beyond this many concurrent slots fall back to the locked
  /// path. Slots are recycled at thread exit (after the departing thread's
  /// magazines flush back to every live pool), so only concurrency counts
  /// against the limit, not thread churn.
  static constexpr std::size_t kMaxThreadSlots = 64;

  struct FreeArena {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  /// Return a departing thread's cached buffers to the global free list.
  /// Called from the thread-exit guard with the pool registry lock held.
  void flush_magazine(unsigned slot);

  void release(Packet* p);
  /// This thread's magazine, or nullptr when the slot space is exhausted.
  Magazine* my_magazine();

  std::size_t capacity_;
  std::size_t mag_cap_;  // min(kMagazineSize, capacity_/8), at least 1
  std::unique_ptr<std::uint8_t, FreeArena> arena_storage_;
  std::unique_ptr<Packet[]> storage_;
  std::mutex mu_;  // guards free_
  std::vector<Packet*> free_;
  std::unique_ptr<Magazine[]> mags_;  // kMaxThreadSlots entries
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::uint64_t> alloc_failures_{0};
};

}  // namespace rb
