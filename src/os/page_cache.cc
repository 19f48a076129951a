#include "os/page_cache.h"

#include <utility>

namespace ntier::os {

void PageCache::write_dirty(std::uint64_t bytes) {
  dirty_ += bytes;
  total_written_ += bytes;
  if (dirty_series_) dirty_series_->set(sim_.now(), static_cast<double>(dirty_));
  if (threshold_cb_ && !above_threshold_ && dirty_ > threshold_) {
    above_threshold_ = true;
    threshold_cb_();
  }
}

std::uint64_t PageCache::take_all_dirty() {
  const std::uint64_t taken = dirty_;
  dirty_ = 0;
  above_threshold_ = false;
  if (dirty_series_) dirty_series_->set(sim_.now(), 0.0);
  return taken;
}

void PageCache::set_threshold(std::uint64_t bytes, std::function<void()> cb) {
  threshold_ = bytes;
  threshold_cb_ = std::move(cb);
  above_threshold_ = dirty_ > threshold_;
}

}  // namespace ntier::os
