#ifndef DEMON_ITEMSETS_ITEMSET_TABLE_H_
#define DEMON_ITEMSETS_ITEMSET_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "itemsets/itemset.h"

namespace demon {

/// \brief The map from itemset to (count, frequent) behind ItemsetModel:
/// the paper's L ∪ NB- with counts (§3.1.1), held flat.
///
/// Layout: the keys sit back to back in one item arena, located by a
/// uint32 offset array with a trailing sentinel; the values sit in a dense
/// Entry array at the same positions ("slots", in insertion order); a
/// power-of-two uint32 linear-probe index maps a key's hash to its slot.
/// An insert appends to the three arrays — no per-itemset allocation — and
/// a 2-itemset costs about 29 bytes (8 of key, 4 of offset, 8 of entry,
/// 5-11 of index) instead of the ~108 of a node-based hash map.
///
/// An erase takes the key out of the index at once (backward-shift
/// deletion, so the index never holds tombstones) and marks its slot dead;
/// the arrays are compacted once dead slots pass a quarter of all slots,
/// or on Compact(). Iteration walks the live slots in insertion order and
/// yields `std::pair<ItemsetView, Entry&>` by value (`const Entry&` on a
/// const table); `it->second` works through an arrow proxy.
///
/// Inserts and erases invalidate iterators, views and Entry references.
class ItemsetTable {
 public:
  /// Support count and frequent flag packed into one word: a count never
  /// reaches 2^63 (it counts transactions), so the flag takes the top bit.
  struct Entry {
    uint64_t count : 63 = 0;
    uint64_t frequent : 1 = 0;
  };
  static_assert(sizeof(Entry) == 8);

  template <bool kConst>
  class Iterator {
   public:
    using EntryRef = std::conditional_t<kConst, const Entry&, Entry&>;
    using value_type = std::pair<ItemsetView, EntryRef>;
    using Table = std::conditional_t<kConst, const ItemsetTable, ItemsetTable>;

    /// Holds a dereferenced pair so that `it->second.count` works.
    struct ArrowProxy {
      value_type pair;
      const value_type* operator->() const { return &pair; }
    };

    Iterator() = default;
    Iterator(Table* table, size_t slot) : table_(table), slot_(slot) {}
    /// iterator -> const_iterator.
    template <bool kOther>
      requires(kConst && !kOther)
    // NOLINTNEXTLINE(google-explicit-constructor): as standard iterators.
    Iterator(const Iterator<kOther>& other)
        : table_(other.table_), slot_(other.slot_) {}

    value_type operator*() const {
      return {table_->KeyAt(slot_), table_->entries_[slot_]};
    }
    ArrowProxy operator->() const { return {**this}; }
    Iterator& operator++() {
      slot_ = table_->NextLive(slot_ + 1);
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return slot_ == other.slot_ && table_ == other.table_;
    }

   private:
    template <bool>
    friend class Iterator;
    Table* table_ = nullptr;
    size_t slot_ = 0;
  };
  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  ItemsetTable() = default;
  ItemsetTable(const ItemsetTable&) = default;
  ItemsetTable& operator=(const ItemsetTable&) = default;
  ItemsetTable(ItemsetTable&& other) noexcept { *this = std::move(other); }
  ItemsetTable& operator=(ItemsetTable&& other) noexcept;

  /// Live entries.
  size_t size() const { return entries_.size() - num_dead_; }
  bool empty() const { return size() == 0; }

  iterator begin() { return {this, NextLive(0)}; }
  iterator end() { return {this, entries_.size()}; }
  const_iterator begin() const { return {this, NextLive(0)}; }
  const_iterator end() const { return {this, entries_.size()}; }

  /// Looks a sorted itemset up; `end()` when it is not tracked.
  iterator find(std::span<const Item> key) { return {this, FindSlot(key)}; }
  const_iterator find(std::span<const Item> key) const {
    return {this, FindSlot(key)};
  }
  bool contains(std::span<const Item> key) const {
    return FindSlot(key) != entries_.size();
  }

  /// Inserts `key` with `value` unless it is already tracked. Returns the
  /// entry for `key` and whether it was inserted.
  std::pair<iterator, bool> emplace(std::span<const Item> key,
                                    const Entry& value);

  /// Removes `key`; returns the number of entries removed (0 or 1).
  size_t erase(std::span<const Item> key);

  /// Removes every entry and releases all memory.
  void clear() { *this = ItemsetTable(); }

  /// Makes room for `entries` more inserts holding `items` key items in
  /// total. The capacity is exact: callers reserve from sizes they know (a
  /// candidate batch, a checkpoint's entry count), so a finished model
  /// carries no doubling slack.
  void ReserveMore(size_t entries, size_t items);

  /// Drops dead slots and releases spare array capacity. Afterwards slot
  /// `i` is the `i`-th live entry in insertion order, which is what Keys()
  /// and ValueAt() index.
  void Compact();

  /// Bytes the table holds: the capacities of its arrays.
  size_t MemoryBytes() const;

  /// The keys of all slots as one flat list, for counting them in place.
  /// Requires no dead slots (call Compact() first).
  FlatItemsets Keys() const;
  /// The entry at `slot`.
  Entry& ValueAt(size_t slot) { return entries_[slot]; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  ItemsetView KeyAt(size_t slot) const {
    return ItemsetView(arena_.data() + offsets_[slot],
                       offsets_[slot + 1] - offsets_[slot]);
  }
  bool IsDead(size_t slot) const { return num_dead_ != 0 && dead_[slot]; }
  size_t NextLive(size_t slot) const {
    while (slot < entries_.size() && IsDead(slot)) ++slot;
    return slot;
  }
  /// The slot holding `key`, or entries_.size().
  size_t FindSlot(std::span<const Item> key) const;
  /// Index position of `key`'s slot, or of the empty position ending its
  /// probe sequence.
  size_t ProbeFor(std::span<const Item> key) const;
  /// Rebuilds the index with `positions` positions from the live slots.
  void Rehash(size_t positions);

  std::vector<Item> arena_;
  /// Slot i's key is arena_[offsets_[i], offsets_[i + 1]); empty while
  /// the table has no slots.
  std::vector<uint32_t> offsets_;
  std::vector<Entry> entries_;
  /// Slot per position, kEmpty where free; size 0 or a power of two.
  std::vector<uint32_t> index_;
  /// Dead flags per slot; empty while nothing is dead.
  std::vector<bool> dead_;
  size_t num_dead_ = 0;
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_ITEMSET_TABLE_H_
