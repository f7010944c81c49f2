#include "net/topology.hpp"

#include <algorithm>

namespace aimes::net {

void Topology::add_site(SiteId site, LinkSpec in, LinkSpec out) {
  channels_[site] = Channels{in, out};
}

bool Topology::has_site(SiteId site) const { return channels_.count(site) > 0; }

Expected<LinkSpec> Topology::link(SiteId site, Direction dir) const {
  auto it = channels_.find(site);
  if (it == channels_.end()) {
    return Expected<LinkSpec>::error("no link registered for " + site.str());
  }
  return dir == Direction::kIn ? it->second.in : it->second.out;
}

Expected<SimDuration> Topology::ideal_duration(SiteId site, Direction dir, DataSize size) const {
  auto l = link(site, dir);
  if (!l) return Expected<SimDuration>::error(l.error());
  const double secs =
      static_cast<double>(size.count_bytes()) / l->capacity.bytes_per_sec();
  return l->latency + SimDuration::seconds(secs);
}

std::vector<SiteId> Topology::sites() const {
  std::vector<SiteId> out;
  out.reserve(channels_.size());
  for (const auto& [id, _] : channels_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace aimes::net
