#include "cluster/ring.hpp"

#include <algorithm>

namespace rdmamon::cluster {

std::uint64_t HashRing::mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t HashRing::point_hash(int member, int replica) const {
  // Two mixing rounds decorrelate (member, replica) lattices; the salt
  // keeps independent rings from sharing point layouts.
  const std::uint64_t m = static_cast<std::uint64_t>(member) + 1;
  const std::uint64_t r = static_cast<std::uint64_t>(replica);
  return mix64(cfg_.salt ^ mix64(m * 0x100000001b3ull + r));
}

bool HashRing::add(int member) {
  if (contains(member)) return false;
  members_.insert(std::lower_bound(members_.begin(), members_.end(), member),
                  member);
  for (int r = 0; r < kRingVnodes; ++r) {
    const std::pair<std::uint64_t, int> pt{point_hash(member, r), member};
    points_.insert(std::lower_bound(points_.begin(), points_.end(), pt), pt);
  }
  ++epoch_;
  return true;
}

bool HashRing::remove(int member) {
  const auto it = std::lower_bound(members_.begin(), members_.end(), member);
  if (it == members_.end() || *it != member) return false;
  members_.erase(it);
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [member](const auto& p) {
                                 return p.second == member;
                               }),
                points_.end());
  ++epoch_;
  return true;
}

bool HashRing::contains(int member) const {
  return std::binary_search(members_.begin(), members_.end(), member);
}

int HashRing::owner_of(int backend_id) const {
  return owner_of_key(
      mix64(cfg_.salt ^ (static_cast<std::uint64_t>(backend_id) + 0x51ed2701ull)));
}

int HashRing::owner_of_key(std::uint64_t key) const {
  if (points_.empty()) return -1;
  // First point at or after the key, wrapping to the ring's start. The
  // pair comparison is (hash, member): equal hashes (vanishingly rare)
  // tie-break by member id, identically on every ring replica.
  const auto it = std::lower_bound(points_.begin(), points_.end(),
                                   std::pair<std::uint64_t, int>{key, -1});
  return it == points_.end() ? points_.front().second : it->second;
}

}  // namespace rdmamon::cluster
