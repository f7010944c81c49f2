// Network topology between the user's origin host and the simulated sites.
//
// AIMES runs on the user's machine and stages every task's input files to
// the resource that executes it and its outputs back (paper §III.E). The
// topology models one WAN channel per (site, direction) with a latency and a
// capacity that concurrent flows share fairly. That is enough structure to
// reproduce the paper's Ts behaviour (linear in the number of tasks, small
// by experimental design) while still penalizing poorly-connected sites in
// strategies that account for data.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/data_size.hpp"
#include "common/expected.hpp"
#include "common/id.hpp"
#include "common/time.hpp"

namespace aimes::net {

using common::Bandwidth;
using common::DataSize;
using common::Expected;
using common::SimDuration;
using common::SiteId;

enum class Direction { kIn, kOut };  // relative to the site: kIn = origin -> site

/// One directed WAN channel.
struct LinkSpec {
  Bandwidth capacity = Bandwidth::mib_per_sec(100.0);
  SimDuration latency = SimDuration::millis(40);
};

/// The set of origin<->site channels.
class Topology {
 public:
  /// Registers both directions for a site. Overwrites existing entries.
  void add_site(SiteId site, LinkSpec in, LinkSpec out);

  /// Registers a symmetric site link.
  void add_site(SiteId site, LinkSpec both) { add_site(site, both, both); }

  [[nodiscard]] bool has_site(SiteId site) const;
  [[nodiscard]] Expected<LinkSpec> link(SiteId site, Direction dir) const;

  /// Ideal (contention-free) transfer duration over a channel.
  [[nodiscard]] Expected<SimDuration> ideal_duration(SiteId site, Direction dir,
                                                     DataSize size) const;

  [[nodiscard]] std::vector<SiteId> sites() const;

 private:
  struct Channels {
    LinkSpec in;
    LinkSpec out;
  };
  std::unordered_map<SiteId, Channels> channels_;
};

}  // namespace aimes::net
