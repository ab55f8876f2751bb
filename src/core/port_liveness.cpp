#include "core/port_liveness.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace reco {

PortLiveness::PortLiveness(int num_ports)
    : ingress_down_(num_ports, 0), egress_down_(num_ports, 0) {}

bool PortLiveness::ingress_up(PortId port) const {
  return port < 0 || port >= num_ports() || ingress_down_[port] == 0;
}

bool PortLiveness::egress_up(PortId port) const {
  return port < 0 || port >= num_ports() || egress_down_[port] == 0;
}

void PortLiveness::apply(Time at, PortId port, PortSide side, bool up) {
  advance(at);
  const int d = up ? -1 : 1;
  const bool was_down = ingress_down_[port] > 0 || egress_down_[port] > 0;
  if (side == PortSide::kIngress || side == PortSide::kBoth) {
    ingress_down_[port] = std::max(0, ingress_down_[port] + d);
  }
  if (side == PortSide::kEgress || side == PortSide::kBoth) {
    egress_down_[port] = std::max(0, egress_down_[port] + d);
  }
  const bool now_down = ingress_down_[port] > 0 || egress_down_[port] > 0;
  if (!was_down && now_down) ++ports_down_;
  if (was_down && !now_down) --ports_down_;
}

void PortLiveness::advance(Time now) {
  if (ports_down_ > 0 && now > mark_) degraded_ += now - mark_;
  mark_ = std::max(mark_, now);
}

Time PortLiveness::degraded_time(Time until) const {
  return ports_down_ > 0 && until > mark_ ? degraded_ + (until - mark_) : degraded_;
}

void PortLiveness::save(SnapshotWriter& out) const {
  for (const std::vector<int>* side : {&ingress_down_, &egress_down_}) {
    out.put_u64(side->size());
    for (const int d : *side) out.put_i32(d);
  }
  out.put_f64(degraded_);
  out.put_f64(mark_);
}

void PortLiveness::load(SnapshotReader& in, int num_ports) {
  for (std::vector<int>* side : {&ingress_down_, &egress_down_}) {
    const std::uint64_t len = in.get_u64();
    if (len != static_cast<std::uint64_t>(num_ports)) {
      throw std::runtime_error("PortLiveness::load: down-counter array has " +
                               std::to_string(len) + " entries for a " +
                               std::to_string(num_ports) + "-port fabric");
    }
    if (len > in.remaining() / 4) {
      throw std::runtime_error("PortLiveness::load: down-counter array overruns the snapshot");
    }
    side->resize(len);
    for (int& d : *side) {
      d = in.get_i32();
      if (d < 0) throw std::runtime_error("PortLiveness::load: negative down-counter");
    }
  }
  ports_down_ = 0;
  for (int p = 0; p < num_ports; ++p) {
    if (ingress_down_[p] > 0 || egress_down_[p] > 0) ++ports_down_;
  }
  degraded_ = in.get_f64();
  mark_ = in.get_f64();
}

}  // namespace reco
