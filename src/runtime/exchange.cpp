#include "runtime/exchange.hpp"

namespace meshpar::runtime {

void Exchanger::exchange(Rank& rank,
                         std::span<std::vector<double>* const> fields,
                         Combine combine) const {
  // Post all sends.
  std::vector<double> buf;
  for (const auto& msg : sends_) {
    buf.clear();
    buf.reserve(msg.indices.size() * fields.size());
    for (const std::vector<double>* f : fields)
      for (int idx : msg.indices) buf.push_back((*f)[idx]);
    rank.send(msg.peer, tag_base_ + me_, buf);
  }
  // Receive in peer order and combine into each field's cells.
  for (const auto& msg : recvs_) {
    std::vector<double> in = rank.recv(msg.peer, tag_base_ + msg.peer);
    std::size_t off = 0;
    for (std::vector<double>* f : fields) {
      for (std::size_t i = 0; i < msg.indices.size(); ++i) {
        double& cell = (*f)[msg.indices[i]];
        cell = combine == Combine::kCopy ? in[off + i] : cell + in[off + i];
      }
      off += msg.indices.size();
    }
  }
}

}  // namespace meshpar::runtime
