// Wire messages for the two-sided (socket) transport.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/payload.hpp"

namespace rdmamon::net {

/// A datagram-ish unit travelling the fabric. `payload` carries typed
/// application data (request descriptors, LoadSnapshots, ...); `bytes` is
/// what timing/bandwidth models use.
struct Message {
  int src_node = -1;
  int dst_node = -1;
  std::uint64_t conn = 0;  ///< connection id (assigned by the Fabric)
  int dst_side = 0;        ///< receiving endpoint within the connection
  std::size_t bytes = 0;
  Payload payload;
};

}  // namespace rdmamon::net
