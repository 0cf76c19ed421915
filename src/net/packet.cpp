#include "net/packet.h"

#include <cstring>
#include <new>

namespace rb {
namespace {

/// Registry of live pools plus the recycled-thread-slot stack. Both are
/// leaked intentionally so main-thread thread_local destructors (which run
/// before static destruction) and pool destructors in any order stay safe.
std::mutex& registry_mu() {
  static std::mutex* m = new std::mutex;
  return *m;
}

std::vector<PacketPool*>& live_pools() {
  static auto* v = new std::vector<PacketPool*>;
  return *v;
}

std::vector<unsigned>& retired_slots() {
  static auto* v = new std::vector<unsigned>;
  return *v;
}

unsigned g_thread_slot_counter = 0;  // guarded by registry_mu()

}  // namespace

namespace detail {

/// Process-wide thread slot: each thread that touches a pool gets a small
/// index addressing its magazine in every pool. At thread exit the guard
/// flushes this thread's cached buffers back to every live pool (buffers
/// must not strand in a dead thread's magazine) and recycles the slot, so
/// only concurrent threads count against kMaxThreadSlots. Threads beyond
/// that degrade to the locked path (correct, just slower).
struct ThreadSlotGuard {
  unsigned slot;
  ThreadSlotGuard() {
    std::lock_guard<std::mutex> lk(registry_mu());
    if (!retired_slots().empty()) {
      slot = retired_slots().back();
      retired_slots().pop_back();
    } else {
      slot = g_thread_slot_counter++;
    }
  }
  ~ThreadSlotGuard() {
    std::lock_guard<std::mutex> lk(registry_mu());
    if (slot < PacketPool::kMaxThreadSlots) {
      for (PacketPool* pool : live_pools()) pool->flush_magazine(slot);
      retired_slots().push_back(slot);
    }
  }
};

}  // namespace detail

namespace {

unsigned thread_slot() {
  thread_local detail::ThreadSlotGuard guard;
  return guard.slot;
}

}  // namespace

void PacketDeleter::operator()(Packet* p) const {
  if (p && p->pool()) p->pool()->release(p);
}

PacketPool::PacketPool(std::size_t capacity) : capacity_(capacity) {
  mag_cap_ = capacity_ / 8;
  if (mag_cap_ > kMagazineSize) mag_cap_ = kMagazineSize;
  if (mag_cap_ == 0) mag_cap_ = 1;
  // calloc, not a value-initializing new: an allocation this large comes
  // straight from fresh zero pages, so the arena costs address space, not
  // resident memory, until packets actually touch their slots.
  arena_storage_.reset(static_cast<std::uint8_t*>(
      std::calloc(capacity * kPacketCapacity + 63, 1)));
  if (!arena_storage_) throw std::bad_alloc();
  const std::uintptr_t raw =
      reinterpret_cast<std::uintptr_t>(arena_storage_.get());
  std::uint8_t* arena =
      reinterpret_cast<std::uint8_t*>((raw + 63) & ~std::uintptr_t(63));
  storage_ = std::make_unique<Packet[]>(capacity);
  free_.reserve(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    Packet* p = &storage_[i];
    p->pool_ = this;
    p->base_ = arena + i * kPacketCapacity;
    free_.push_back(p);
  }
  mags_ = std::make_unique<Magazine[]>(kMaxThreadSlots);
  std::lock_guard<std::mutex> lk(registry_mu());
  live_pools().push_back(this);
}

// Buffers parked in magazines are just pointers into storage_; nothing to
// hand back on destruction beyond dropping out of the thread-exit flush
// registry.
PacketPool::~PacketPool() {
  std::lock_guard<std::mutex> lk(registry_mu());
  auto& pools = live_pools();
  for (auto it = pools.begin(); it != pools.end(); ++it) {
    if (*it == this) {
      pools.erase(it);
      break;
    }
  }
}

void PacketPool::flush_magazine(unsigned slot) {
  Magazine& m = mags_[slot];
  if (m.count == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  while (m.count > 0) free_.push_back(m.items[--m.count]);
}

PacketPool::Magazine* PacketPool::my_magazine() {
  const unsigned slot = thread_slot();
  if (slot >= kMaxThreadSlots) return nullptr;
  return &mags_[slot];
}

PacketPtr PacketPool::alloc() {
  Packet* p = nullptr;
  Magazine* m = my_magazine();
  if (m != nullptr && m->count > 0) {
    p = m->items[--m->count];
  } else {
    std::lock_guard<std::mutex> lk(mu_);
    if (!free_.empty()) {
      p = free_.back();
      free_.pop_back();
      if (m != nullptr) {
        // Batch-refill while we hold the lock so the next half-magazine
        // of allocs on this thread stays lock-free.
        std::size_t take =
            free_.size() < mag_cap_ / 2 ? free_.size() : mag_cap_ / 2;
        while (take-- > 0) {
          m->items[m->count++] = free_.back();
          free_.pop_back();
        }
      }
    }
  }
  if (p == nullptr) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  p->len_ = 0;
  p->rx_time_ns = 0;
  p->ingress_port = 0;
  return PacketPtr(p);
}

PacketPtr PacketPool::clone(const Packet& src) {
  PacketPtr p = alloc();
  if (!p) return nullptr;
  std::memcpy(p->base_, src.base_, src.len_);
  p->len_ = src.len_;
  p->rx_time_ns = src.rx_time_ns;
  p->ingress_port = src.ingress_port;
  return p;
}

void PacketPool::release(Packet* p) {
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  Magazine* m = my_magazine();
  if (m != nullptr) {
    if (m->count >= mag_cap_) {
      // Full: flush half (at least one) to the global list so buffers
      // keep circulating to other threads instead of accumulating here.
      const std::size_t flush = mag_cap_ - mag_cap_ / 2;
      std::lock_guard<std::mutex> lk(mu_);
      for (std::size_t k = 0; k < flush; ++k)
        free_.push_back(m->items[--m->count]);
    }
    m->items[m->count++] = p;
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  free_.push_back(p);
}

PacketPool& PacketPool::default_pool() {
  static PacketPool pool(16384);
  return pool;
}

}  // namespace rb
