#include "cache/store.h"

namespace ntier::cache {

std::uint32_t CacheStore::find(std::uint64_t key) {
  const std::uint64_t* slot = index_.find(key);
  return slot ? static_cast<std::uint32_t>(*slot) : kNil;
}

bool CacheStore::live_or_expire(std::uint32_t slot, sim::SimTime now) {
  if (entries_[slot].expires > now) return true;
  ++expirations_;
  erase(slot);
  return false;
}

bool CacheStore::lookup(std::uint64_t key, sim::SimTime now) {
  const std::uint32_t slot = find(key);
  if (slot == kNil || !live_or_expire(slot, now)) return false;
  unlink(slot);
  link_front(slot);
  return true;
}

bool CacheStore::holds(std::uint64_t key, sim::SimTime now) {
  const std::uint32_t slot = find(key);
  return slot != kNil && live_or_expire(slot, now);
}

void CacheStore::insert(std::uint64_t key, sim::SimTime now, sim::SimTime ttl) {
  std::uint32_t slot = find(key);
  if (slot != kNil) {
    entries_[slot].expires = now + ttl;
    unlink(slot);
    link_front(slot);
    return;
  }
  if (free_ != kNil) {
    slot = free_;
    free_ = entries_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  entries_[slot].key = key;
  entries_[slot].expires = now + ttl;
  link_front(slot);
  index_.insert(key, slot);
  if (index_.size() > capacity_) {
    ++evictions_;
    erase(tail_);
  }
}

bool CacheStore::invalidate(std::uint64_t key) {
  const std::uint32_t slot = find(key);
  if (slot == kNil) return false;
  erase(slot);
  return true;
}

void CacheStore::link_front(std::uint32_t slot) {
  Entry& e = entries_[slot];
  e.prev = kNil;
  e.next = head_;
  if (head_ != kNil) entries_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

void CacheStore::unlink(std::uint32_t slot) {
  const Entry& e = entries_[slot];
  if (e.prev != kNil) entries_[e.prev].next = e.next; else head_ = e.next;
  if (e.next != kNil) entries_[e.next].prev = e.prev; else tail_ = e.prev;
}

void CacheStore::erase(std::uint32_t slot) {
  index_.erase(entries_[slot].key);
  unlink(slot);
  entries_[slot].next = free_;
  free_ = slot;
}

}  // namespace ntier::cache
