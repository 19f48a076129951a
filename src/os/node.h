#pragma once

#include <memory>
#include <string>

#include "os/cpu.h"
#include "os/disk.h"
#include "os/page_cache.h"
#include "os/pdflush.h"
#include "sim/simulation.h"

namespace ntier::os {

/// Hardware/OS parameters of one physical node (paper Table II: Xeon E5530
/// quad-core, SATA 7200 rpm disk).
struct NodeConfig {
  std::string name = "node";
  int cores = 4;
  /// Effective writeback bandwidth of the data disk (scattered log blocks
  /// on a 7200-rpm SATA spindle, well below the sequential maximum).
  double disk_bytes_per_second = 40.0 * (1 << 20);  // 40 MB/s
  PdflushConfig pdflush;
};

/// One machine: CPU + disk + page cache + writeback daemon. Tier servers
/// run *on* a Node and consume its CPU; their log writes dirty its page
/// cache, which is what ultimately produces the millibottlenecks.
class Node {
 public:
  Node(sim::Simulation& simu, NodeConfig config)
      : config_(std::move(config)),
        cpu_(simu, config_.cores, config_.name + "/cpu"),
        disk_(simu, config_.disk_bytes_per_second, config_.name + "/disk"),
        page_cache_(simu),
        pdflush_(simu, page_cache_, disk_, cpu_, config_.pdflush) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return config_.name; }
  const NodeConfig& config() const { return config_; }

  CpuResource& cpu() { return cpu_; }
  Disk& disk() { return disk_; }
  PageCache& page_cache() { return page_cache_; }
  PdflushDaemon& pdflush() { return pdflush_; }
  const PdflushDaemon& pdflush() const { return pdflush_; }

 private:
  NodeConfig config_;
  CpuResource cpu_;
  Disk disk_;
  PageCache page_cache_;
  PdflushDaemon pdflush_;
};

}  // namespace ntier::os
