#include "itemsets/itemset_table.h"

#include <algorithm>

#include "common/check.h"

namespace demon {

namespace {

/// FNV-1a over the items, then a 64-bit finaliser (MurmurHash3 fmix64).
/// Raw FNV over 32-bit items leaves the low bits poorly mixed, and the
/// index masks to the low bits.
uint64_t HashKey(std::span<const Item> key) {
  uint64_t h = 1469598103934665603ULL;
  for (const Item item : key) {
    h ^= item;
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Index positions for `n` live entries: a power of two at load <= 3/4,
/// or none for an empty table.
size_t IndexPositionsFor(size_t n) {
  if (n == 0) return 0;
  size_t positions = 8;
  while (positions * 3 < n * 4) positions *= 2;
  return positions;
}

}  // namespace

ItemsetTable& ItemsetTable::operator=(ItemsetTable&& other) noexcept {
  if (this == &other) return *this;
  arena_ = std::exchange(other.arena_, {});
  offsets_ = std::exchange(other.offsets_, {});
  entries_ = std::exchange(other.entries_, {});
  index_ = std::exchange(other.index_, {});
  dead_ = std::exchange(other.dead_, {});
  num_dead_ = std::exchange(other.num_dead_, 0);
  return *this;
}

size_t ItemsetTable::ProbeFor(std::span<const Item> key) const {
  const size_t mask = index_.size() - 1;
  for (size_t pos = HashKey(key) & mask;; pos = (pos + 1) & mask) {
    const uint32_t slot = index_[pos];
    if (slot == kEmpty) return pos;
    const ItemsetView stored = KeyAt(slot);
    if (stored.size() == key.size() &&
        std::equal(stored.begin(), stored.end(), key.begin())) {
      return pos;
    }
  }
}

size_t ItemsetTable::FindSlot(std::span<const Item> key) const {
  if (index_.empty()) return entries_.size();
  const uint32_t slot = index_[ProbeFor(key)];
  return slot == kEmpty ? entries_.size() : slot;
}

std::pair<ItemsetTable::iterator, bool> ItemsetTable::emplace(
    std::span<const Item> key, const Entry& value) {
  const size_t positions = IndexPositionsFor(size() + 1);
  if (positions > index_.size()) Rehash(positions);
  const size_t pos = ProbeFor(key);
  if (index_[pos] != kEmpty) return {iterator(this, index_[pos]), false};

  if (offsets_.empty()) offsets_.push_back(0);
  DEMON_CHECK(entries_.size() < kEmpty &&
              arena_.size() + key.size() < UINT32_MAX);
  index_[pos] = static_cast<uint32_t>(entries_.size());
  arena_.insert(arena_.end(), key.begin(), key.end());
  offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  entries_.push_back(value);
  if (num_dead_ != 0) dead_.push_back(false);
  return {iterator(this, entries_.size() - 1), true};
}

size_t ItemsetTable::erase(std::span<const Item> key) {
  if (index_.empty()) return 0;
  size_t hole = ProbeFor(key);
  const uint32_t slot = index_[hole];
  if (slot == kEmpty) return 0;

  // Backward-shift deletion: pull every later member of the probe run
  // whose home position does not lie strictly between the hole and it
  // back into the hole, so lookups never need tombstones.
  const size_t mask = index_.size() - 1;
  for (size_t pos = (hole + 1) & mask; index_[pos] != kEmpty;
       pos = (pos + 1) & mask) {
    const size_t home = HashKey(KeyAt(index_[pos])) & mask;
    if (((pos - home) & mask) >= ((pos - hole) & mask)) {
      index_[hole] = index_[pos];
      hole = pos;
    }
  }
  index_[hole] = kEmpty;

  if (num_dead_ == 0) dead_.assign(entries_.size(), false);
  dead_[slot] = true;
  ++num_dead_;
  // Dead slots beyond a quarter of all slots are reclaimed.
  if (num_dead_ * 4 > entries_.size()) Compact();
  return 1;
}

void ItemsetTable::ReserveMore(size_t entries, size_t items) {
  if (entries == 0) return;
  if (offsets_.empty()) offsets_.push_back(0);
  entries_.reserve(entries_.size() + entries);
  offsets_.reserve(offsets_.size() + entries);
  arena_.reserve(arena_.size() + items);
  if (num_dead_ != 0) dead_.reserve(entries_.size() + entries);
  const size_t positions = IndexPositionsFor(size() + entries);
  if (positions > index_.size()) Rehash(positions);
}

void ItemsetTable::Compact() {
  if (num_dead_ == 0) {
    arena_.shrink_to_fit();
    offsets_.shrink_to_fit();
    entries_.shrink_to_fit();
    return;
  }
  const size_t live = size();
  size_t live_items = 0;
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    if (!dead_[slot]) live_items += offsets_[slot + 1] - offsets_[slot];
  }
  std::vector<uint32_t> remap(entries_.size(), kEmpty);
  std::vector<Item> arena;
  std::vector<uint32_t> offsets;
  std::vector<Entry> entries;
  arena.reserve(live_items);
  entries.reserve(live);
  if (live != 0) {
    offsets.reserve(live + 1);
    offsets.push_back(0);
  }
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    if (dead_[slot]) continue;
    remap[slot] = static_cast<uint32_t>(entries.size());
    const ItemsetView key = KeyAt(slot);
    arena.insert(arena.end(), key.begin(), key.end());
    offsets.push_back(static_cast<uint32_t>(arena.size()));
    entries.push_back(entries_[slot]);
  }
  arena_.swap(arena);
  offsets_.swap(offsets);
  entries_.swap(entries);
  std::vector<bool>().swap(dead_);
  num_dead_ = 0;

  // Keys keep their hashes, so while the index size still fits the live
  // count its positions stay valid and only the slot numbers move.
  const size_t positions = IndexPositionsFor(live);
  if (positions != index_.size()) {
    Rehash(positions);
    return;
  }
  for (uint32_t& slot : index_) {
    if (slot != kEmpty) slot = remap[slot];
  }
}

void ItemsetTable::Rehash(size_t positions) {
  std::vector<uint32_t>(positions, kEmpty).swap(index_);
  if (positions == 0) return;
  const size_t mask = positions - 1;
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    if (IsDead(slot)) continue;
    size_t pos = HashKey(KeyAt(slot)) & mask;
    while (index_[pos] != kEmpty) pos = (pos + 1) & mask;
    index_[pos] = static_cast<uint32_t>(slot);
  }
}

size_t ItemsetTable::MemoryBytes() const {
  return arena_.capacity() * sizeof(Item) +
         offsets_.capacity() * sizeof(uint32_t) +
         entries_.capacity() * sizeof(Entry) +
         index_.capacity() * sizeof(uint32_t) + dead_.capacity() / 8;
}

FlatItemsets ItemsetTable::Keys() const {
  DEMON_CHECK_MSG(num_dead_ == 0, "Keys() needs a compacted table");
  return {arena_, offsets_};
}

}  // namespace demon
