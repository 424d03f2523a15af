// Allocator policies threaded through every node-based structure
// (src/hash/, src/tree/). Each structure takes an `Alloc` template
// parameter modeling the AllocatorPolicy concept below; the typed
// New<T>/Delete<T> node interface rides on top of the byte interface and is
// checked structurally at each call site (PoolAllocator deliberately
// restricts it to one node type).
//
// Three policies are provided:
//
//   * GlobalNewAllocator — plain new/delete; the ablation baseline standing
//     in for the paper's system malloc (ptmalloc) runs.
//   * ArenaAllocator — bump arena plus size-class freelists; serves
//     structures with several node sizes (ART, Judy, B+tree).
//   * PoolAllocator<T> — typed intrusive freelist over an arena; serves
//     single-node-type structures (chaining maps, T-tree) with zero
//     size-class bookkeeping.
//
// When `kWholesaleRelease` is true a structure's destructor may skip the
// per-node free walk entirely for trivially destructible nodes: the arena
// releases everything wholesale. That destructor fast path is one of the
// big wins the paper attributes to allocation strategy.

#ifndef MEMAGG_MEM_ALLOCATOR_H_
#define MEMAGG_MEM_ALLOCATOR_H_

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "mem/arena.h"
#include "util/macros.h"

namespace memagg {

/// Contract for every allocator policy: the raw byte interface all slot- and
/// node-based structures draw from, a per-policy Stats() counter snapshot,
/// and the compile-time kWholesaleRelease flag destructor fast paths key on.
/// Modeled by GlobalNewAllocator, ArenaAllocator, and PoolAllocator<T>
/// (all below).
template <typename A>
concept AllocatorPolicy =
    std::move_constructible<A> &&
    requires(A alloc, const A& calloc, void* ptr, size_t bytes, size_t align) {
      requires std::same_as<
          std::remove_cv_t<decltype(A::kWholesaleRelease)>, bool>;
      { alloc.AllocateBytes(bytes, align) } -> std::same_as<void*>;
      alloc.DeallocateBytes(ptr, bytes);
      { calloc.Stats() } -> std::same_as<AllocStats>;
    };

/// Ablation baseline: every node is a separate global new/delete. This is
/// what all node-based structures did before the arena layer existed, and
/// it stays selectable (labels `Hash_SC_Global`, `ART_Global`) so the
/// allocator dimension can be measured rather than assumed.
struct GlobalNewAllocator {
  static constexpr bool kWholesaleRelease = false;

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    return new T(std::forward<Args>(args)...);
  }

  template <typename T>
  void Delete(T* ptr) {
    delete ptr;
  }

  void* AllocateBytes(size_t bytes, [[maybe_unused]] size_t align) {
    MEMAGG_DCHECK(align <= alignof(std::max_align_t));
    return ::operator new(bytes);
  }

  void DeallocateBytes(void* ptr, size_t /*bytes*/) { ::operator delete(ptr); }

  AllocStats Stats() const { return {}; }
};

/// Arena-backed allocator with size-class freelists, for structures that
/// allocate several node sizes (ART node4/16/48/256, Judy branches, B+tree
/// leaf/inner, probing slot arrays). Deleted blocks up to kMaxFreelistBytes
/// go on an 8-byte-granularity freelist and are reused by later
/// allocations of the same class; larger blocks are counted as waste and
/// reclaimed only by the arena's wholesale release.
///
/// All freelisted blocks are allocated at alignof(std::max_align_t), so a
/// block freed as one type is always correctly aligned for reuse as
/// another type of the same size class.
///
/// Default-constructed allocators lazily own a private Arena; the
/// Arena* constructor borrows a caller-owned arena (e.g. a worker slot
/// from mem/worker_arenas.h), which must outlive every allocation.
/// Not thread-safe — one allocator per owner, like the arena itself.
class ArenaAllocator {
 public:
  static constexpr bool kWholesaleRelease = true;
  static constexpr size_t kMaxFreelistBytes = 2048;
  static constexpr size_t kBlockAlign = alignof(std::max_align_t);

  ArenaAllocator() = default;
  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}

  ArenaAllocator(const ArenaAllocator&) = delete;
  ArenaAllocator& operator=(const ArenaAllocator&) = delete;

  ArenaAllocator(ArenaAllocator&& other) noexcept
      : owned_(std::move(other.owned_)),
        arena_(other.arena_),
        free_heads_(other.free_heads_),
        freelist_reuses_(other.freelist_reuses_),
        freed_bytes_(other.freed_bytes_),
        stranded_bytes_(other.stranded_bytes_) {
    other.arena_ = nullptr;
    other.free_heads_.fill(nullptr);
    other.freelist_reuses_ = 0;
    other.freed_bytes_ = 0;
    other.stranded_bytes_ = 0;
  }

  ArenaAllocator& operator=(ArenaAllocator&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      arena_ = other.arena_;
      free_heads_ = other.free_heads_;
      freelist_reuses_ = other.freelist_reuses_;
      freed_bytes_ = other.freed_bytes_;
      stranded_bytes_ = other.stranded_bytes_;
      other.arena_ = nullptr;
      other.free_heads_.fill(nullptr);
      other.freelist_reuses_ = 0;
      other.freed_bytes_ = 0;
      other.stranded_bytes_ = 0;
    }
    return *this;
  }

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(alignof(T) <= kBlockAlign,
                  "over-aligned node types are not supported");
    void* mem = AllocateBytes(sizeof(T), alignof(T));
    return ::new (mem) T(std::forward<Args>(args)...);
  }

  /// Destroys *ptr and recycles its block onto the freelist (or counts it
  /// as waste if it is above the freelist cap). The memory itself is only
  /// reclaimed by the arena's wholesale release.
  template <typename T>
  void Delete(T* ptr) {
    ptr->~T();
    DeallocateBytes(ptr, sizeof(T));
  }

  void* AllocateBytes(size_t bytes, size_t align) {
    const size_t cls = SizeClass(bytes);
    if (cls < kNumClasses && align <= kBlockAlign) {
      FreeBlock* block = free_heads_[cls];
      if (block != nullptr) {
        free_heads_[cls] = block->next;
        ++freelist_reuses_;
        freed_bytes_ -= ClassBytes(cls);
        return block;
      }
      return arena().Allocate(ClassBytes(cls), kBlockAlign);
    }
    return arena().Allocate(bytes, align);
  }

  void DeallocateBytes(void* ptr, size_t bytes) {
    const size_t cls = SizeClass(bytes);
    if (cls < kNumClasses) {
      auto* block = static_cast<FreeBlock*>(ptr);
      block->next = free_heads_[cls];
      free_heads_[cls] = block;
      freed_bytes_ += ClassBytes(cls);
    } else {
      stranded_bytes_ += bytes;
    }
  }

  /// Freelist counters, plus the arena's counters when this allocator owns
  /// its arena. Borrowed arenas (worker slots) are reported once by their
  /// owner to avoid double counting.
  AllocStats Stats() const {
    AllocStats stats;
    if (owned_ != nullptr) stats = owned_->Stats();
    stats.freelist_reuses += freelist_reuses_;
    stats.bytes_wasted += freed_bytes_ + stranded_bytes_;
    return stats;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  // Size classes are 8-byte buckets: class c serves (8c, 8(c+1)] bytes.
  static constexpr size_t kClassGranularity = 8;
  static constexpr size_t kNumClasses = kMaxFreelistBytes / kClassGranularity;

  static size_t SizeClass(size_t bytes) {
    if (bytes < sizeof(FreeBlock)) bytes = sizeof(FreeBlock);
    return (bytes - 1) / kClassGranularity;
  }

  static size_t ClassBytes(size_t cls) { return (cls + 1) * kClassGranularity; }

  Arena& arena() {
    if (MEMAGG_UNLIKELY(arena_ == nullptr)) {
      owned_ = std::make_unique<Arena>();
      arena_ = owned_.get();
    }
    return *arena_;
  }

  std::unique_ptr<Arena> owned_;
  Arena* arena_ = nullptr;
  std::array<FreeBlock*, kNumClasses> free_heads_{};
  uint64_t freelist_reuses_ = 0;
  uint64_t freed_bytes_ = 0;
  uint64_t stranded_bytes_ = 0;
};

/// Typed freelist over an arena for structures with exactly one node type
/// (chaining-map nodes, T-tree nodes). Delete pushes the node's storage
/// onto an intrusive freelist; New pops it back before touching the arena.
/// The New/Delete signatures are shaped like the generic allocators' so
/// structure code is identical across policies.
///
/// Ownership and threading rules match ArenaAllocator: default-constructed
/// pools lazily own an arena, Arena* pools borrow one (which must outlive
/// the allocations), and a pool serves a single thread.
template <typename T>
class PoolAllocator {
 public:
  static constexpr bool kWholesaleRelease = true;

  PoolAllocator() = default;
  explicit PoolAllocator(Arena* arena) : arena_(arena) {}

  PoolAllocator(const PoolAllocator&) = delete;
  PoolAllocator& operator=(const PoolAllocator&) = delete;

  PoolAllocator(PoolAllocator&& other) noexcept
      : owned_(std::move(other.owned_)),
        arena_(other.arena_),
        free_(other.free_),
        free_count_(other.free_count_),
        freelist_reuses_(other.freelist_reuses_) {
    other.arena_ = nullptr;
    other.free_ = nullptr;
    other.free_count_ = 0;
    other.freelist_reuses_ = 0;
  }

  PoolAllocator& operator=(PoolAllocator&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      arena_ = other.arena_;
      free_ = other.free_;
      free_count_ = other.free_count_;
      freelist_reuses_ = other.freelist_reuses_;
      other.arena_ = nullptr;
      other.free_ = nullptr;
      other.free_count_ = 0;
      other.freelist_reuses_ = 0;
    }
    return *this;
  }

  /// Binds a fresh (unused) pool to a borrowed arena; used to point
  /// default-constructed per-worker pool slots at their worker's arena.
  void Attach(Arena* arena) {
    // Always-on: re-attaching a used pool would recycle freelist nodes that
    // live in the *old* arena into structures tied to the new one — a
    // use-after-free once the old arena resets, mid concurrent build.
    MEMAGG_CHECK(owned_ == nullptr && free_ == nullptr);
    arena_ = arena;
  }

  template <typename U = T, typename... Args>
  U* New(Args&&... args) {
    static_assert(std::is_same_v<U, T>,
                  "PoolAllocator serves exactly one node type");
    void* mem;
    if (free_ != nullptr) {
      mem = free_;
      free_ = free_->next;
      --free_count_;
      ++freelist_reuses_;
    } else {
      mem = arena().Allocate(kSlotBytes, kSlotAlign);
    }
    return ::new (mem) T(std::forward<Args>(args)...);
  }

  template <typename U>
  void Delete(U* ptr) {
    static_assert(std::is_same_v<U, T>,
                  "PoolAllocator serves exactly one node type");
    ptr->~T();
    auto* node = ::new (static_cast<void*>(ptr)) FreeNode{free_};
    free_ = node;
    ++free_count_;
  }

  void* AllocateBytes(size_t bytes, size_t align) {
    return arena().Allocate(bytes, align);
  }

  void DeallocateBytes(void* /*ptr*/, size_t /*bytes*/) {}

  /// See ArenaAllocator::Stats() for the owned-vs-borrowed rule.
  AllocStats Stats() const {
    AllocStats stats;
    if (owned_ != nullptr) stats = owned_->Stats();
    stats.freelist_reuses += freelist_reuses_;
    stats.bytes_wasted += free_count_ * kSlotBytes;
    return stats;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static constexpr size_t kSlotBytes =
      sizeof(T) > sizeof(FreeNode) ? sizeof(T) : sizeof(FreeNode);
  static constexpr size_t kSlotAlign =
      alignof(T) > alignof(FreeNode) ? alignof(T) : alignof(FreeNode);
  static_assert(kSlotAlign <= alignof(std::max_align_t),
                "over-aligned node types are not supported");

  Arena& arena() {
    if (MEMAGG_UNLIKELY(arena_ == nullptr)) {
      owned_ = std::make_unique<Arena>();
      arena_ = owned_.get();
    }
    return *arena_;
  }

  std::unique_ptr<Arena> owned_;
  Arena* arena_ = nullptr;
  FreeNode* free_ = nullptr;
  uint64_t free_count_ = 0;
  uint64_t freelist_reuses_ = 0;
};

static_assert(AllocatorPolicy<GlobalNewAllocator>);
static_assert(AllocatorPolicy<ArenaAllocator>);
static_assert(AllocatorPolicy<PoolAllocator<uint64_t>>);

}  // namespace memagg

#endif  // MEMAGG_MEM_ALLOCATOR_H_
