#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/fields.h"

namespace ntier::kv {

/// Configuration of the replicated sharded KV data tier (Dynamo-style):
/// `replicas` storage nodes carry `shards` shards on a consistent-hash ring
/// with `vnodes` virtual nodes per replica; each shard lives on `n` replicas
/// and operations complete at `r` (reads) / `w` (writes) acknowledgements.
/// The classic quorum-intersection requirement r + w > n makes every read
/// see the newest completed write, which is what read-repair restores when
/// a quorum diverges after failures.
struct KvConfig {
  int replicas = 4;  // storage nodes in the tier (> n so handoff has a target)
  int shards = 16;
  int vnodes = 8;    // virtual ring positions per replica
  int n = 3;         // preference-list size (copies per shard)
  int r = 2;         // read quorum
  int w = 2;         // write quorum

  /// Hinted handoff: missed writes stashed on a stand-in replica, bounded
  /// per holder; overflow is counted as handoff_dropped (no silent loss).
  std::size_t hint_capacity = 4096;

  /// Validate the quorum geometry; on failure fills `error` with the reason
  /// (mirrors the CLI's rejection-message contract).
  bool validate(std::string* error) const;
};

/// KvConfig's field table (see sim/fields.h): --kv's keys, in declaration
/// order. sim::spec_text writes the canonical
/// "replicas=4,shards=16,vnodes=8,n=3,r=2,w=2,hints=4096", which
/// sim::parse_spec<KvConfig> reads back.
constexpr void visit(sim::FieldsOf<KvConfig> auto& c, auto&& row) {
  row("replicas", c.replicas, sim::Int{});
  row("shards", c.shards, sim::Int{});
  row("vnodes", c.vnodes, sim::Int{});
  row("n", c.n, sim::Int{});
  row("r", c.r, sim::Int{});
  row("w", c.w, sim::Int{});
  row("hints", c.hint_capacity, sim::Int{});
}
constexpr std::string_view spec_name(const KvConfig&) { return "kv config"; }

}  // namespace ntier::kv
